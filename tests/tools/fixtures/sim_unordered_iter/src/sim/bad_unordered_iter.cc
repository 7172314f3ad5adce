// Fixture: iterating unordered containers inside `sim`.
#include <cstdio>
#include <string>
#include <unordered_map>
#include <unordered_set>

namespace fixture {

void emit() {
  std::unordered_map<int, std::string> table;
  std::unordered_set<int> members;
  for (const auto& [key, value] : table) {          // HIT unordered-iter
    std::printf("%d=%s\n", key, value.c_str());
  }
  for (auto it = members.begin(); it != members.end(); ++it) {  // HIT
    std::printf("%d\n", *it);
  }
}

// Keyed lookups don't depend on hash order and are fine.
bool probe(const std::unordered_map<int, std::string>& index, int key) {
  return index.find(key) != index.end();
}

}  // namespace fixture
