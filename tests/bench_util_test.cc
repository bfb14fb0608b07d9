// The A/B bench harness: rotation, quartiles, identity and gates.

#include "bench/bench_util.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace rapid::bench {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

Sample Fingerprinted(int& value) { return {static_cast<uint64_t>(value), {}}; }

TEST(BenchHarnessTest, EachArmLeadsEquallyOftenAfterOneWarmUpEach) {
  constexpr int kArms = 3;
  constexpr int kRoundsPerArm = 4;
  Harness harness("rotation_test", kArms * kRoundsPerArm);
  std::vector<int> log;
  std::vector<Arm<int>> arms;
  for (int a = 0; a < kArms; ++a) {
    arms.push_back({"arm" + std::to_string(a), {}, [&log, a] {
                      log.push_back(a);
                      return 0;
                    }});
  }
  harness.Case<int>("rotation", arms, Fingerprinted);

  ASSERT_EQ(log.size(),
            static_cast<size_t>(kArms * (1 + kArms * kRoundsPerArm)));
  for (int a = 0; a < kArms; ++a) EXPECT_EQ(log[a], a);  // warm-ups
  std::vector<int> leads(kArms, 0);
  for (int r = 0; r < kArms * kRoundsPerArm; ++r) {
    const int* round = log.data() + kArms * (1 + r);
    ++leads[round[0]];
    for (int i = 0; i < kArms; ++i) {
      EXPECT_EQ(round[i], (r + i) % kArms) << "round " << r;  // every arm
    }
  }
  EXPECT_EQ(leads, std::vector<int>(kArms, kRoundsPerArm));
}

TEST(BenchHarnessTest, QuartilesOfOddAndEvenSets) {
  // numpy.percentile(xs, [50, 25, 75]) with linear interpolation.
  const Quartiles odd = QuartilesOf({7, 1, 5, 3, 9});
  EXPECT_DOUBLE_EQ(odd.median, 5);
  EXPECT_DOUBLE_EQ(odd.q1, 3);
  EXPECT_DOUBLE_EQ(odd.q3, 7);

  const Quartiles even = QuartilesOf({4, 1, 3, 2});
  EXPECT_DOUBLE_EQ(even.median, 2.5);
  EXPECT_DOUBLE_EQ(even.q1, 1.75);
  EXPECT_DOUBLE_EQ(even.q3, 3.25);

  const Quartiles one = QuartilesOf({42});
  EXPECT_DOUBLE_EQ(one.median, 42);
  EXPECT_DOUBLE_EQ(one.q1, 42);
  EXPECT_DOUBLE_EQ(one.q3, 42);
}

TEST(BenchHarnessTest, FingerprintMismatchBetweenArmsFailsTheCase) {
  Harness harness("identity_test", 2);
  const CaseResult& same = harness.Case<int>(
      "same", {{"a", {}, [] { return 1; }}, {"b", {}, [] { return 1; }}},
      Fingerprinted);
  EXPECT_TRUE(same.identical);
  EXPECT_TRUE(harness.Pass());

  const CaseResult& differ = harness.Case<int>(
      "differ", {{"a", {}, [] { return 1; }}, {"b", {}, [] { return 2; }}},
      Fingerprinted);
  EXPECT_FALSE(differ.identical);
  EXPECT_TRUE(same.identical);  // earlier references stay valid
  EXPECT_FALSE(harness.Pass());
}

TEST(BenchHarnessTest, FailedGateExitsNonzeroAndStillWritesJson) {
  const std::string path = "BENCH_gate_test.json";
  std::remove(path.c_str());
  Harness harness("gate_test", 1);
  harness.Case<int>("only", {{"a", [] {}, [] { return 0; }}}, Fingerprinted);
  EXPECT_TRUE(harness.Gate("holds", 2.0, 1.0, true));
  EXPECT_FALSE(harness.Gate("fails", 0.5, 1.0, false));
  EXPECT_NE(harness.Finish(), 0);

  const std::string json = ReadFile(path);
  std::remove(path.c_str());
  for (const char* key : {"\"bench\": \"gate_test\"", "\"settings\": \"RAPID_",
                          "\"reps\": 1", "\"cases\": [", "\"wall_ms\": {",
                          "\"gates\": [", "\"gate\": \"fails\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
  EXPECT_NE(json.find("\"pass\": false\n}"), std::string::npos) << json;
}

TEST(BenchHarnessTest, WallGateRecordsMarginInIqrUnits) {
  const std::string path = "BENCH_wall_gate_test.json";
  std::remove(path.c_str());
  Harness harness("wall_gate_test", 1);
  ArmResult arm;
  arm.name = "a";
  arm.wall_ms = {10.0, 9.0, 11.0};  // median 10, IQR 2
  EXPECT_TRUE(harness.WallGate("near", arm, 11.0));
  EXPECT_FALSE(harness.WallGate("over", arm, 9.0));
  EXPECT_TRUE(harness.Gate("plain", 1.0, 2.0, true));
  EXPECT_NE(harness.Finish(), 0);

  const std::string json = ReadFile(path);
  std::remove(path.c_str());
  EXPECT_NE(json.find("\"gate\": \"near\", \"value\": 10, \"bound\": 11, "
                      "\"margin_iqr\": 0.5, \"pass\": true"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"margin_iqr\": -0.5, \"pass\": false"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"gate\": \"plain\", \"value\": 1, \"bound\": 2, "
                      "\"pass\": true"),
            std::string::npos)
      << json;
}

TEST(BenchHarnessTest, FingerprintIgnoresRowOrderButNotValuesOrNames) {
  std::vector<core::ColumnMeta> metas(2);
  metas[0].name = "k";
  metas[1].name = "v";
  core::ColumnSet a(metas);
  a.column(0) = {1, 2, 3};
  a.column(1) = {10, 20, 30};
  core::ColumnSet reordered(metas);
  reordered.column(0) = {3, 1, 2};
  reordered.column(1) = {30, 10, 20};
  EXPECT_EQ(Fingerprint(a), Fingerprint(reordered));

  core::ColumnSet swapped(metas);  // same column bags, different rows
  swapped.column(0) = {1, 2, 3};
  swapped.column(1) = {20, 10, 30};
  EXPECT_NE(Fingerprint(a), Fingerprint(swapped));

  metas[1].name = "w";
  core::ColumnSet renamed(metas);
  renamed.column(0) = a.column(0);
  renamed.column(1) = a.column(1);
  EXPECT_NE(Fingerprint(a), Fingerprint(renamed));
}

}  // namespace
}  // namespace rapid::bench
