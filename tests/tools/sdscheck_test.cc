// End-to-end tests for tools/sdscheck: each pass fires on its positive
// fixture with exact file:line diagnostics, accepts its negative
// fixture, and — the analyzer's actual job — the real repo is clean
// under all five passes. Every directory under tests/tools/fixtures/ is
// a small repo root checked on its own, so an exit code speaks for that
// fixture alone. SDSCHECK_BIN / SDSCHECK_FIXTURES / SDSCHECK_REPO_ROOT
// are injected by CMake as compile definitions.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

RunResult run_sdscheck(const std::string& args) {
  const std::string cmd = std::string(SDSCHECK_BIN) + " " + args + " 2>&1";
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

/// Run one pass over the fixture root `name`.
RunResult check(const std::string& pass, const std::string& name) {
  return run_sdscheck("--pass=" + pass + " " + std::string(SDSCHECK_FIXTURES) +
                      "/" + name);
}

std::string repo(const std::string& rel) {
  return std::string(SDSCHECK_REPO_ROOT) + "/" + rel;
}

// --- lockgraph -------------------------------------------------------------

TEST(SdscheckLockGraph, AbBaCycleIsReportedWithThePath) {
  const RunResult r = check("lockgraph", "lock_cycle");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[lock-cycle]"), std::string::npos) << r.output;
  // Exact diagnostic: the cycle path and the anchor at a_'s declaration.
  EXPECT_NE(r.output.find("Pair::a_ -> Pair::b_ -> Pair::a_"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("pair.h:23:"), std::string::npos) << r.output;
}

TEST(SdscheckLockGraph, AcyclicDiamondIsClean) {
  const RunResult r = check("lockgraph", "lock_diamond");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("OK"), std::string::npos) << r.output;
}

TEST(SdscheckLockGraph, UnrankedMutexWithoutMarkerIsReported) {
  const RunResult r = check("lockgraph", "lock_unranked");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[lock-rank]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("unranked.h:11:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("Unranked::mu_"), std::string::npos) << r.output;
}

TEST(SdscheckLockGraph, FinalClassesKeepTheirNames) {
  const RunResult r = check("lockgraph", "lock_final");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("final_classes.h:22:"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("'Unranked::mu_'"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("'Ranked::mu_'"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("final::"), std::string::npos) << r.output;
}

TEST(SdscheckLockGraph, RankInversionIsReportedAtTheAcquisition) {
  const RunResult r = check("lockgraph", "lock_inversion");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[lock-order]"), std::string::npos) << r.output;
  // Anchored at the inner acquisition, naming both ranks.
  EXPECT_NE(r.output.find("inversion.h:15:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("LockRank::kLow"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("LockRank::kHigh"), std::string::npos) << r.output;
}

// --- layering --------------------------------------------------------------

TEST(SdscheckLayering, RankBanAndTransitiveRoutesAreReported) {
  const RunResult r = check("layering", "layering_bad");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // Plain rank violation: common reaching up into fault.
  EXPECT_NE(r.output.find("upward.h:4:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("may not include 'fault'"), std::string::npos)
      << r.output;
  // Direct banned include.
  EXPECT_NE(r.output.find("direct.h:4:"), std::string::npos) << r.output;
  // Transitive route, with the full chain spelled out.
  EXPECT_NE(
      r.output.find(
          "sim/engine.h -> fault/chaos.h -> transport/socket.h"),
      std::string::npos)
      << r.output;
}

// --- annotations -----------------------------------------------------------

TEST(SdscheckAnnotations, UnguardedFieldIsReportedAndMarkerSuppresses) {
  const RunResult r = check("annotations", "annotations_bad");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[unguarded-field]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("counter.h:19:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("Counter::count_"), std::string::npos) << r.output;
  // The marked field on line 20 must not be reported.
  EXPECT_EQ(r.output.find("Counter::named_"), std::string::npos) << r.output;
}

// A marker is a comment that starts with `sdscheck:`. A standalone
// comment that only quotes one in prose must not excuse the field below.
TEST(SdscheckAnnotations, MarkerQuotedInProseDoesNotSuppress) {
  const RunResult r = check("annotations", "annotations_prose");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("ledger.h:15:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("Ledger::balance_"), std::string::npos) << r.output;
}

// --- protocoverage ---------------------------------------------------------

TEST(SdscheckProto, MessageWithoutRoundTripTestIsReported) {
  const RunResult r = check("protocoverage", "proto_bad");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[proto-coverage]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("messages.h:16:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("proto::Pong"), std::string::npos) << r.output;
  // Ping has a round-trip test and must not be reported.
  EXPECT_EQ(r.output.find("proto::Ping "), std::string::npos) << r.output;
}

// --- determinism -----------------------------------------------------------

TEST(SdscheckDeterminism, WallClockHitsInSim) {
  const RunResult r = check("determinism", "sim_wallclock");
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

TEST(SdscheckDeterminism, RandHitsInSim) {
  const RunResult r = check("determinism", "sim_rand");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[sim-rand]"), std::string::npos) << r.output;
  // The seeded-PRNG function is legitimate.
  EXPECT_EQ(r.output.find("bad_rand.cc:16:"), std::string::npos) << r.output;
}

TEST(SdscheckDeterminism, SleepHitsInSim) {
  const RunResult r = check("determinism", "sim_sleep");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[sim-sleep]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("bad_sleep.cc:9:"), std::string::npos);
  EXPECT_NE(r.output.find("bad_sleep.cc:10:"), std::string::npos);
  EXPECT_NE(r.output.find("bad_sleep.cc:11:"), std::string::npos);
}

TEST(SdscheckDeterminism, ThreadSpawnHitsInSim) {
  const RunResult r = check("determinism", "sim_thread");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[sim-thread]"), std::string::npos) << r.output;
  // An unqualified identifier named `thread` is not a spawn.
  EXPECT_EQ(r.output.find("bad_thread.cc:16:"), std::string::npos) << r.output;
}

TEST(SdscheckDeterminism, UnorderedIterationHitsInSimAndBench) {
  const RunResult sim = check("determinism", "sim_unordered_iter");
  EXPECT_EQ(sim.exit_code, 1) << sim.output;
  EXPECT_NE(sim.output.find("[unordered-iter]"), std::string::npos);

  const RunResult bench = check("determinism", "bench_unordered_iter");
  EXPECT_EQ(bench.exit_code, 1) << bench.output;
  EXPECT_NE(bench.output.find("[unordered-iter]"), std::string::npos);
  // bench/ is exempt from the sim determinism rules: the steady_clock
  // read in the same fixture must not be reported.
  EXPECT_EQ(bench.output.find("[sim-wallclock]"), std::string::npos)
      << bench.output;
}

TEST(SdscheckDeterminism, SpanStampWallClockHitsInSimAndBench) {
  // bench/: wall clocks are fine for throughput measurement (wall_ns),
  // but a statement that stamps a span with one is flagged, and the
  // standalone allow() suppresses the second occurrence.
  const RunResult bench = check("determinism", "bench_span_wallclock");
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
  const RunResult sim = check("determinism", "sim_span_wallclock");
  EXPECT_EQ(sim.exit_code, 1) << sim.output;
  EXPECT_NE(sim.output.find("[span-wallclock]"), std::string::npos)
      << sim.output;
  EXPECT_NE(sim.output.find("[sim-wallclock]"), std::string::npos)
      << sim.output;
}

TEST(SdscheckDeterminism, WallClockHitsInFault) {
  const RunResult r = check("determinism", "fault_wallclock");
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

TEST(SdscheckDeterminism, RandHitsInFault) {
  const RunResult r = check("determinism", "fault_rand");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[fault-rand]"), std::string::npos) << r.output;
  // The seeded-PRNG function is the sanctioned idiom.
  EXPECT_EQ(r.output.find("bad_rand.cc:16:"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("bad_rand.cc:17:"), std::string::npos) << r.output;
}

TEST(SdscheckDeterminism, HotpathAllocHitsOnlyInsideRegion) {
  const RunResult r = check("determinism", "hotpath_alloc");
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

// Regions nest: the inner region's end (spelled with the
// hotpath-begin/hotpath-end aliases) must not terminate the outer
// region, so the allocation after it still fires. Nor may `hotpath-end`
// open a region through its `hotpath` prefix: that would leave a region
// open at end of file.
TEST(SdscheckDeterminism, NestedHotpathRegionsTrackDepth) {
  const RunResult r = check("determinism", "hotpath_nested");
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

TEST(SdscheckDeterminism, EndWithoutBeginIsAnError) {
  const RunResult r = check("determinism", "hotpath_unbalanced_end");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[unbalanced-directive]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("unbalanced_end.cc:5:"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("unbalanced_end.cc:7:"), std::string::npos)
      << r.output;
}

TEST(SdscheckDeterminism, RegionOpenAtEofReportsTheBeginLine) {
  const RunResult r = check("determinism", "hotpath_unbalanced_open");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("unbalanced_open.cc:5:"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("never closed"), std::string::npos) << r.output;
}

TEST(SdscheckDeterminism, AllowDirectivesSilenceFindings) {
  const RunResult r = check("determinism", "determinism_suppressed");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("OK"), std::string::npos) << r.output;
}

TEST(SdscheckDeterminism, CleanFixturesStayClean) {
  const RunResult r = check("determinism", "determinism_clean");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(SdscheckDeterminism, NoInputIsAUsageError) {
  const RunResult r = run_sdscheck("--pass=determinism");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

// --- CLI -------------------------------------------------------------------

TEST(SdscheckCli, HelpNamesEveryRule) {
  const RunResult r = run_sdscheck("--help");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* rule :
       {"layering", "lock-rank", "lock-order", "lock-cycle",
        "unguarded-field", "proto-coverage", "sim-wallclock", "sim-rand",
        "sim-sleep", "sim-thread", "unordered-iter", "hotpath-alloc",
        "fault-wallclock", "fault-rand", "span-wallclock",
        "unbalanced-directive"}) {
    EXPECT_NE(r.output.find(rule), std::string::npos) << rule;
  }
}

TEST(SdscheckCli, UnknownPassIsAUsageError) {
  const RunResult r = run_sdscheck("--pass=nonsense .");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(SdscheckCli, MissingRootIsAUsageError) {
  const RunResult r = run_sdscheck("");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

// --- the real tree ---------------------------------------------------------

// The determinism pass's actual job: the simulation, bench, daemon and
// example trees carry no replay-breaking code. All four directories must
// exist, since the pass silently skips a missing one. If this fails, fix
// the code (or justify an allow marker in place) — do not weaken the rule.
TEST(SdscheckTree, RealSimAndBenchTreesAreClean) {
  for (const char* dir : {"src", "bench", "apps", "examples"}) {
    EXPECT_TRUE(std::filesystem::is_directory(repo(dir))) << dir;
  }
  const RunResult r = run_sdscheck("--pass=determinism " + repo(""));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("OK (determinism)"), std::string::npos)
      << r.output;
}

// The hot-path rule exists for the allocation-lean paths: the columnar
// MetricsStore's per-report fold/apply_delta, the incremental-PSFA and
// aggregator compute, and the DES engine's step/insert core. They must
// pass the determinism pass, and their regions must actually be present
// (a deleted or misspelled marker would silently disable the rule).
TEST(SdscheckTree, HotPathRegionsArePresentAndClean) {
  const RunResult r = run_sdscheck("--pass=determinism " + repo(""));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* file :
       {"src/core/metrics_store.cc", "src/core/global.cc",
        "src/policy/incremental_psfa.cc", "src/core/aggregator.cc",
        "src/sim/engine.h"}) {
    std::ifstream in(repo(file));
    ASSERT_TRUE(in.is_open()) << file;
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("// sdscheck: hotpath"), std::string::npos) << file;
    EXPECT_NE(text.find("// sdscheck: end-hotpath"), std::string::npos)
        << file;
  }
}

// The analyzer's actual job: the real repo conforms under all five
// passes. If this fails, fix the violation (or add a documented
// layering.toml entry / allow marker in place) — do not weaken the pass.
TEST(SdscheckTree, RealRepoIsCleanUnderAllPasses) {
  const RunResult r = run_sdscheck(std::string(SDSCHECK_REPO_ROOT));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("OK"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("determinism"), std::string::npos) << r.output;
}

}  // namespace
