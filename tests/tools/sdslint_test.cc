// End-to-end tests for tools/sdslint: every rule fires on its positive
// fixture, suppressions silence it, clean fixtures stay clean, and —
// the reason the linter exists — the real src/sim and bench trees lint
// clean. SDSLINT_BIN / SDSLINT_FIXTURES / SDSLINT_REPO_ROOT are injected
// by CMake as compile definitions.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

/// Run the sdslint binary against `args` and capture its output.
RunResult run_sdslint(const std::string& args) {
  const std::string cmd = std::string(SDSLINT_BIN) + " " + args + " 2>&1";
  RunResult result;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buf;
  std::size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    result.output.append(buf.data(), n);
  }
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

std::string fixture(const std::string& rel) {
  return std::string(SDSLINT_FIXTURES) + "/" + rel;
}

std::string repo(const std::string& rel) {
  return std::string(SDSLINT_REPO_ROOT) + "/" + rel;
}

TEST(SdslintRules, WallClockHitsInSim) {
  const RunResult r = run_sdslint(fixture("sim/bad_wallclock.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[sim-wallclock]"), std::string::npos) << r.output;
  // file:line anchors on the three offending lines.
  EXPECT_NE(r.output.find("bad_wallclock.cc:9:"), std::string::npos);
  EXPECT_NE(r.output.find("bad_wallclock.cc:10:"), std::string::npos);
  EXPECT_NE(r.output.find("bad_wallclock.cc:11:"), std::string::npos);
  // Comment/string mentions and identifier substrings must not fire.
  EXPECT_EQ(r.output.find("bad_wallclock.cc:19:"), std::string::npos);
  EXPECT_EQ(r.output.find("bad_wallclock.cc:22:"), std::string::npos);
}

TEST(SdslintRules, RandHitsInSim) {
  const RunResult r = run_sdslint(fixture("sim/bad_rand.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[sim-rand]"), std::string::npos) << r.output;
  // The seeded-PRNG function is legitimate.
  EXPECT_EQ(r.output.find("bad_rand.cc:16:"), std::string::npos) << r.output;
}

TEST(SdslintRules, SleepHitsInSim) {
  const RunResult r = run_sdslint(fixture("sim/bad_sleep.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[sim-sleep]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("bad_sleep.cc:9:"), std::string::npos);
  EXPECT_NE(r.output.find("bad_sleep.cc:10:"), std::string::npos);
  EXPECT_NE(r.output.find("bad_sleep.cc:11:"), std::string::npos);
}

TEST(SdslintRules, ThreadSpawnHitsInSim) {
  const RunResult r = run_sdslint(fixture("sim/bad_thread.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[sim-thread]"), std::string::npos) << r.output;
  // An unqualified identifier named `thread` is not a spawn.
  EXPECT_EQ(r.output.find("bad_thread.cc:16:"), std::string::npos) << r.output;
}

TEST(SdslintRules, UnorderedIterationHitsInSimAndBench) {
  const RunResult sim = run_sdslint(fixture("sim/bad_unordered_iter.cc"));
  EXPECT_EQ(sim.exit_code, 1) << sim.output;
  EXPECT_NE(sim.output.find("[unordered-iter]"), std::string::npos);

  const RunResult bench = run_sdslint(fixture("bench/bad_unordered_iter.cc"));
  EXPECT_EQ(bench.exit_code, 1) << bench.output;
  EXPECT_NE(bench.output.find("[unordered-iter]"), std::string::npos);
  // bench/ is exempt from the sim determinism rules: the steady_clock
  // read in the same fixture must not be reported.
  EXPECT_EQ(bench.output.find("[sim-wallclock]"), std::string::npos)
      << bench.output;
}

TEST(SdslintRules, SpanStampWallClockHitsInSimAndBench) {
  // bench/: wall clocks are fine for throughput measurement (wall_ns),
  // but a statement that stamps a span with one is flagged, and the
  // inline allow() suppresses the second occurrence.
  const RunResult bench = run_sdslint(fixture("bench/bad_span_wallclock.cc"));
  EXPECT_EQ(bench.exit_code, 1) << bench.output;
  EXPECT_NE(bench.output.find("[span-wallclock]"), std::string::npos)
      << bench.output;
  EXPECT_NE(bench.output.find("bad_span_wallclock.cc:21:"), std::string::npos)
      << bench.output;
  EXPECT_EQ(bench.output.find("bad_span_wallclock.cc:16:"), std::string::npos)
      << bench.output;
  EXPECT_EQ(bench.output.find("bad_span_wallclock.cc:26:"), std::string::npos)
      << bench.output;

  // sim/: fires alongside the general sim-wallclock determinism rule.
  const RunResult sim = run_sdslint(fixture("sim/bad_span_wallclock.cc"));
  EXPECT_EQ(sim.exit_code, 1) << sim.output;
  EXPECT_NE(sim.output.find("[span-wallclock]"), std::string::npos)
      << sim.output;
  EXPECT_NE(sim.output.find("[sim-wallclock]"), std::string::npos)
      << sim.output;
}

TEST(SdslintRules, WallClockHitsInFault) {
  const RunResult r = run_sdslint(fixture("fault/bad_wallclock.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[fault-wallclock]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("bad_wallclock.cc:9:"), std::string::npos);
  EXPECT_NE(r.output.find("bad_wallclock.cc:10:"), std::string::npos);
  EXPECT_NE(r.output.find("bad_wallclock.cc:11:"), std::string::npos);
  // `phase_timeout` must not match the time() pattern.
  EXPECT_EQ(r.output.find("bad_wallclock.cc:18:"), std::string::npos)
      << r.output;
  // fault/ is outside src/sim: the sim rule names must not appear.
  EXPECT_EQ(r.output.find("[sim-wallclock]"), std::string::npos) << r.output;
}

TEST(SdslintRules, RandHitsInFault) {
  const RunResult r = run_sdslint(fixture("fault/bad_rand.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[fault-rand]"), std::string::npos) << r.output;
  // The seeded-PRNG function is the sanctioned idiom.
  EXPECT_EQ(r.output.find("bad_rand.cc:16:"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("bad_rand.cc:17:"), std::string::npos) << r.output;
}

TEST(SdslintRules, HotpathAllocHitsOnlyInsideRegion) {
  const RunResult r = run_sdslint(fixture("hotpath/bad_hotpath_alloc.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[hotpath-alloc]"), std::string::npos) << r.output;
  // heap new[], make_unique, std::function, malloc, to_string, and a
  // by-value container declaration, in fixture order.
  EXPECT_NE(r.output.find("bad_hotpath_alloc.cc:17:"), std::string::npos);
  EXPECT_NE(r.output.find("bad_hotpath_alloc.cc:18:"), std::string::npos);
  EXPECT_NE(r.output.find("bad_hotpath_alloc.cc:19:"), std::string::npos);
  EXPECT_NE(r.output.find("bad_hotpath_alloc.cc:20:"), std::string::npos);
  EXPECT_NE(r.output.find("bad_hotpath_alloc.cc:21:"), std::string::npos);
  EXPECT_NE(r.output.find("bad_hotpath_alloc.cc:22:"), std::string::npos);
  // Allocations before/after the region, placement new inside it, and a
  // reference-bound container parameter are all unrestricted.
  EXPECT_EQ(r.output.find("bad_hotpath_alloc.cc:13:"), std::string::npos);
  EXPECT_EQ(r.output.find("bad_hotpath_alloc.cc:31:"), std::string::npos);
  EXPECT_EQ(r.output.find("bad_hotpath_alloc.cc:35:"), std::string::npos);
  EXPECT_EQ(r.output.find("bad_hotpath_alloc.cc:39:"), std::string::npos);
}

// The rule exists for the PR-7 hot paths: the columnar MetricsStore's
// per-report fold/apply_delta and the incremental-PSFA compute must stay
// allocation-free in steady state. Lint the real files and require both
// that they are clean and that their regions are actually present (a
// deleted marker would silently disable the rule).
TEST(SdslintTree, StoreAndIncrementalPsfaHotPathsStayClean) {
  const std::string files = repo("src/core/metrics_store.cc") + " " +
                            repo("src/core/global.cc") + " " +
                            repo("src/policy/incremental_psfa.cc") + " " +
                            repo("src/core/aggregator.cc");
  const RunResult r = run_sdslint(files);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* file :
       {"src/core/metrics_store.cc", "src/core/global.cc",
        "src/policy/incremental_psfa.cc", "src/core/aggregator.cc"}) {
    std::ifstream in(repo(file));
    ASSERT_TRUE(in.is_open()) << file;
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("sdslint: hotpath"), std::string::npos) << file;
    EXPECT_NE(text.find("sdslint: end-hotpath"), std::string::npos) << file;
  }
}

// Regions nest: the inner region's end (spelled with the
// hotpath-begin/hotpath-end aliases) must not terminate the outer
// region, so the allocation after it still fires.
TEST(SdslintRegions, NestedHotpathRegionsTrackDepth) {
  const RunResult r = run_sdslint(fixture("hotpath/nested.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("nested.cc:15:"), std::string::npos) << r.output;
  // The regression this guards: after the inner hotpath-end, the outer
  // region is still open.
  EXPECT_NE(r.output.find("nested.cc:19:"), std::string::npos) << r.output;
  // Outside every region allocation is unrestricted again.
  EXPECT_EQ(r.output.find("nested.cc:25:"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("[unbalanced-directive]"), std::string::npos)
      << r.output;
}

TEST(SdslintRegions, EndWithoutBeginIsAnError) {
  const RunResult r = run_sdslint(fixture("hotpath/unbalanced_end.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[unbalanced-directive]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("unbalanced_end.cc:5:"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("unbalanced_end.cc:7:"), std::string::npos)
      << r.output;
}

TEST(SdslintRegions, RegionOpenAtEofReportsTheBeginLine) {
  const RunResult r = run_sdslint(fixture("hotpath/unbalanced_open.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("unbalanced_open.cc:5:"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("never closed"), std::string::npos) << r.output;
}

TEST(SdslintSuppression, AllowDirectivesSilenceFindings) {
  const RunResult r = run_sdslint(fixture("sim/suppressed.cc") + " " +
                                  fixture("hotpath/suppressed.cc"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("OK"), std::string::npos) << r.output;
}

TEST(SdslintSuppression, CleanFixturesStayClean) {
  const RunResult r =
      run_sdslint(fixture("sim/clean.cc") + " " + fixture("bench/clean.cc") +
                  " " + fixture("hotpath/clean.cc") + " " +
                  fixture("fault/clean.cc"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(SdslintCli, ListRulesNamesEveryRule) {
  const RunResult r = run_sdslint("--list-rules");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* rule :
       {"sim-wallclock", "sim-rand", "sim-sleep", "sim-thread",
        "unordered-iter", "hotpath-alloc", "fault-wallclock", "fault-rand"}) {
    EXPECT_NE(r.output.find(rule), std::string::npos) << rule;
  }
}

TEST(SdslintCli, NoInputIsAUsageError) {
  const RunResult r = run_sdslint("");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

// The linter's actual job: the real simulation and bench trees carry no
// determinism violations. If this fails, fix the code (or justify a
// suppression in place) — do not weaken the rule.
TEST(SdslintTree, RealSimAndBenchTreesAreClean) {
  const RunResult r =
      run_sdslint(repo("src") + " " + repo("bench") + " " + repo("apps") +
                  " " + repo("examples"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

}  // namespace
