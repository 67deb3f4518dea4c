#include "tools/cli.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

namespace pinocchio {
namespace cli {
namespace {

struct CliOutcome {
  int code;
  std::string out;
  std::string err;
};

CliOutcome RunCli(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const int code = Run(args, out, err);
  return {code, out.str(), err.str()};
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(CliTest, NoArgsShowsUsageAndFails) {
  const CliOutcome r = RunCli({});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.out.find("Usage:"), std::string::npos);
}

TEST(CliTest, HelpSucceeds) {
  EXPECT_EQ(RunCli({"--help"}).code, 0);
  EXPECT_EQ(RunCli({"help"}).code, 0);
  EXPECT_EQ(RunCli({"solve", "--help"}).code, 0);
}

TEST(CliTest, UnknownCommandFails) {
  const CliOutcome r = RunCli({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, UnknownFlagRejected) {
  const CliOutcome r = RunCli({"generate", "--profil=foursquare",
                               "--out=x.csv"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--profil"), std::string::npos);
}

TEST(CliTest, GenerateRequiresOut) {
  const CliOutcome r = RunCli({"generate", "--profile=foursquare"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--out"), std::string::npos);
}

TEST(CliTest, GenerateRejectsBadProfileAndScale) {
  EXPECT_EQ(RunCli({"generate", "--profile=mars", "--out=x.csv"}).code, 2);
  EXPECT_EQ(RunCli({"generate", "--profile=gowalla", "--scale=0",
                    "--out=x.csv"})
                .code,
            2);
  EXPECT_EQ(RunCli({"generate", "--profile=gowalla", "--scale=1.5",
                    "--out=x.csv"})
                .code,
            2);
}

TEST(CliTest, GenerateStatsSolvePipelineCsv) {
  const std::string csv = TempPath("cli_pipeline.csv");
  const CliOutcome gen = RunCli({"generate", "--profile=foursquare",
                                 "--scale=0.02", "--seed=3",
                                 "--out=" + csv});
  ASSERT_EQ(gen.code, 0) << gen.err;
  EXPECT_NE(gen.out.find("wrote"), std::string::npos);

  const CliOutcome stats = RunCli({"stats", "--in=" + csv});
  ASSERT_EQ(stats.code, 0) << stats.err;
  EXPECT_NE(stats.out.find("users"), std::string::npos);
  EXPECT_NE(stats.out.find("check-ins"), std::string::npos);

  const CliOutcome solve = RunCli({"solve", "--in=" + csv,
                                   "--algorithm=pin-vo", "--candidates=50",
                                   "--top=5"});
  ASSERT_EQ(solve.code, 0) << solve.err;
  EXPECT_NE(solve.out.find("Top-5 candidates"), std::string::npos);
  EXPECT_NE(solve.out.find("PIN-VO"), std::string::npos);
}

TEST(CliTest, BinarySnapshotPipeline) {
  const std::string snapshot = TempPath("cli_pipeline.pino");
  const CliOutcome gen = RunCli({"generate", "--profile=gowalla",
                                 "--scale=0.01", "--seed=5",
                                 "--out=" + snapshot});
  ASSERT_EQ(gen.code, 0) << gen.err;

  const CliOutcome stats = RunCli({"stats", "--in=" + snapshot});
  ASSERT_EQ(stats.code, 0) << stats.err;

  // Binary snapshots keep the venue table, so solve reports ground truth.
  const CliOutcome solve = RunCli({"solve", "--in=" + snapshot,
                                   "--candidates=40", "--top=3"});
  ASSERT_EQ(solve.code, 0) << solve.err;
  EXPECT_NE(solve.out.find("actual check-ins"), std::string::npos);
}

TEST(CliTest, SolveAllAlgorithmsAgreeOnWinnerClass) {
  const std::string snapshot = TempPath("cli_algos.pino");
  ASSERT_EQ(RunCli({"generate", "--profile=foursquare", "--scale=0.02",
                    "--seed=11", "--out=" + snapshot})
                .code,
            0);
  for (const std::string algorithm :
       {"na", "pin", "pin-grid", "pin-hull", "pin-vo", "pin-vo-star", "brnn",
        "range"}) {
    const CliOutcome r = RunCli({"solve", "--in=" + snapshot,
                                 "--algorithm=" + algorithm,
                                 "--candidates=30", "--top=3"});
    EXPECT_EQ(r.code, 0) << algorithm << ": " << r.err;
    EXPECT_NE(r.out.find("Top-3 candidates"), std::string::npos) << algorithm;
  }
}

TEST(CliTest, ThreadBudgetKeepsTheTopTable) {
  const std::string snapshot = TempPath("cli_threads.pino");
  ASSERT_EQ(RunCli({"generate", "--profile=foursquare", "--scale=0.02",
                    "--seed=11", "--out=" + snapshot})
                .code,
            0);
  // Everything from the table title on is budget-independent; the first
  // lines carry the solver name and timings.
  const auto table = [](const std::string& out) {
    return out.substr(out.find("Top-3 candidates"));
  };
  for (const std::string algorithm : {"pin", "pin-vo", "pin-vo-star"}) {
    const CliOutcome one = RunCli({"solve", "--in=" + snapshot,
                                   "--algorithm=" + algorithm,
                                   "--candidates=30", "--top=3"});
    const CliOutcome three = RunCli({"solve", "--in=" + snapshot,
                                     "--algorithm=" + algorithm,
                                     "--candidates=30", "--top=3",
                                     "--threads=3"});
    ASSERT_EQ(one.code, 0) << algorithm << ": " << one.err;
    ASSERT_EQ(three.code, 0) << algorithm << ": " << three.err;
    EXPECT_NE(three.out.find("-P3 over"), std::string::npos) << three.out;
    EXPECT_EQ(table(one.out), table(three.out)) << algorithm;
  }
}

TEST(CliTest, ThreadsZeroResolvesToHardwareConcurrency) {
  const std::string snapshot = TempPath("cli_threads_zero.pino");
  ASSERT_EQ(RunCli({"generate", "--profile=foursquare", "--scale=0.01",
                    "--seed=4", "--out=" + snapshot})
                .code,
            0);
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  const std::string name =
      hardware == 1 ? "PIN-VO" : "PIN-VO-P" + std::to_string(hardware);
  const CliOutcome r = RunCli({"solve", "--in=" + snapshot,
                               "--algorithm=pin-vo", "--candidates=20",
                               "--top=3", "--threads=0"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find(name + " over"), std::string::npos) << r.out;
}

TEST(CliTest, RemovedParallelSpellingsAreRejected) {
  const std::string snapshot = TempPath("cli_removed_algos.pino");
  ASSERT_EQ(RunCli({"generate", "--profile=foursquare", "--scale=0.01",
                    "--out=" + snapshot})
                .code,
            0);
  // The thread budget is --threads on the one solver, not a second name.
  for (const std::string algorithm : {"na-par", "pin-par"}) {
    const CliOutcome r = RunCli({"solve", "--in=" + snapshot,
                                 "--algorithm=" + algorithm, "--threads=2"});
    EXPECT_EQ(r.code, 2) << algorithm;
  }
  EXPECT_EQ(RunCli({"solve", "--help"}).out.find("pin-par"),
            std::string::npos);
}

TEST(CliTest, SolveRejectsBadInputs) {
  EXPECT_EQ(RunCli({"solve"}).code, 2);
  EXPECT_EQ(RunCli({"solve", "--in=/nonexistent.csv"}).code, 1);
  const std::string snapshot = TempPath("cli_badflags.pino");
  ASSERT_EQ(RunCli({"generate", "--profile=foursquare", "--scale=0.01",
                    "--out=" + snapshot})
                .code,
            0);
  EXPECT_EQ(RunCli({"solve", "--in=" + snapshot, "--algorithm=warp"}).code,
            2);
  EXPECT_EQ(RunCli({"solve", "--in=" + snapshot, "--tau=1.5"}).code, 2);
  EXPECT_EQ(RunCli({"solve", "--in=" + snapshot, "--threads=-1"}).code, 2);
}

TEST(CliTest, DetailedStatsPrintsDistributions) {
  const std::string snapshot = TempPath("cli_detailed.pino");
  ASSERT_EQ(RunCli({"generate", "--profile=foursquare", "--scale=0.02",
                    "--seed=2", "--out=" + snapshot})
                .code,
            0);
  const CliOutcome r = RunCli({"stats", "--in=" + snapshot, "--detailed"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("check-ins per user: median"), std::string::npos);
  EXPECT_NE(r.out.find("activity-region diagonal"), std::string::npos);
  EXPECT_NE(r.out.find("#"), std::string::npos);  // histogram bars
}

TEST(CliTest, SolveWritesGeoJson) {
  const std::string snapshot = TempPath("cli_geojson.pino");
  const std::string geojson = TempPath("cli_geojson.json");
  ASSERT_EQ(RunCli({"generate", "--profile=foursquare", "--scale=0.02",
                    "--seed=4", "--out=" + snapshot})
                .code,
            0);
  const CliOutcome r = RunCli({"solve", "--in=" + snapshot,
                               "--candidates=30", "--top=5",
                               "--geojson=" + geojson});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("wrote GeoJSON"), std::string::npos);
  std::ifstream file(geojson);
  ASSERT_TRUE(file.is_open());
  std::stringstream content;
  content << file.rdbuf();
  EXPECT_NE(content.str().find("FeatureCollection"), std::string::npos);
  EXPECT_NE(content.str().find("\"rank\": 1"), std::string::npos);
}

TEST(CliTest, ExplainReportsInfluencedObjects) {
  const std::string snapshot = TempPath("cli_explain.pino");
  ASSERT_EQ(RunCli({"generate", "--profile=gowalla", "--scale=0.02",
                    "--seed=6", "--out=" + snapshot})
                .code,
            0);
  const CliOutcome r = RunCli({"explain", "--in=" + snapshot,
                               "--candidate=2", "--candidates=40",
                               "--top=5"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("influences"), std::string::npos);
  EXPECT_NE(r.out.find("Most strongly influenced objects"),
            std::string::npos);
  EXPECT_NE(r.out.find("Pr_c(O)"), std::string::npos);
}

TEST(CliTest, ExplainValidatesArguments) {
  EXPECT_EQ(RunCli({"explain"}).code, 2);
  const std::string snapshot = TempPath("cli_explain2.pino");
  ASSERT_EQ(RunCli({"generate", "--profile=gowalla", "--scale=0.02",
                    "--seed=6", "--out=" + snapshot})
                .code,
            0);
  EXPECT_EQ(RunCli({"explain", "--in=" + snapshot, "--candidate=999999",
                    "--candidates=10"})
                .code,
            2);
}

TEST(CliTest, DiscretizePipeline) {
  const std::string traj = TempPath("cli_traj.csv");
  {
    std::ofstream f(traj);
    // Two commuters sampled every 10 min for an hour.
    for (int e = 1; e <= 2; ++e) {
      for (int i = 0; i <= 6; ++i) {
        f << e << "," << i * 600 << "," << 1.30 + 0.001 * e + 0.0001 * i
          << "," << 103.80 + 0.001 * i << "\n";
      }
    }
  }
  const std::string checkins = TempPath("cli_traj_checkins.csv");
  const CliOutcome r = RunCli({"discretize", "--in=" + traj,
                               "--out=" + checkins, "--interval-s=600"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("discretized 2 trajectories"), std::string::npos);

  const CliOutcome stats = RunCli({"stats", "--in=" + checkins});
  ASSERT_EQ(stats.code, 0) << stats.err;
  const CliOutcome solve = RunCli({"solve", "--in=" + checkins,
                                   "--candidates=5", "--top=2"});
  EXPECT_EQ(solve.code, 0) << solve.err;
}

TEST(CliTest, DiscretizeValidatesArguments) {
  EXPECT_EQ(RunCli({"discretize"}).code, 2);
  EXPECT_EQ(RunCli({"discretize", "--in=/nonexistent", "--out=/tmp/x",
                    "--interval-s=0"})
                .code,
            2);
  EXPECT_EQ(
      RunCli({"discretize", "--in=/nonexistent", "--out=/tmp/x"}).code, 1);
}

TEST(CliTest, SelectGreedyFacilitySet) {
  const std::string snapshot = TempPath("cli_select.pino");
  ASSERT_EQ(RunCli({"generate", "--profile=gowalla", "--scale=0.02",
                    "--seed=8", "--out=" + snapshot})
                .code,
            0);
  const CliOutcome r = RunCli({"select", "--in=" + snapshot, "--k=3",
                               "--candidates=50"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Greedy facility set"), std::string::npos);
  EXPECT_NE(r.out.find("selected 3 facilities"), std::string::npos);
}

TEST(CliTest, SelectValidatesArguments) {
  EXPECT_EQ(RunCli({"select"}).code, 2);
  const std::string snapshot = TempPath("cli_select2.pino");
  ASSERT_EQ(RunCli({"generate", "--profile=gowalla", "--scale=0.02",
                    "--seed=8", "--out=" + snapshot})
                .code,
            0);
  EXPECT_EQ(RunCli({"select", "--in=" + snapshot, "--k=0"}).code, 2);
}

TEST(CliTest, StatsRequiresInput) {
  EXPECT_EQ(RunCli({"stats"}).code, 2);
  EXPECT_EQ(RunCli({"stats", "--in=/nonexistent.pino"}).code, 1);
}

}  // namespace
}  // namespace cli
}  // namespace pinocchio
