/**
 * @file
 * The bench_compare CI gate, unit-tested: the tool that fails a PR on
 * a perf regression must itself be pinned — direction typing (which
 * way is "worse" for each metric family), the exact >10% threshold
 * boundary, the flattening JSON reader, and the --require contract
 * (a bench that stops emitting its record fails CI, exit 2, which the
 * waiver env var never excuses). Also the record-file rewrite that
 * keeps other benches' records.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include "bench_compare_impl.h"

namespace apo::bench {
namespace {

// ---------------------------------------------------------------------------
// Direction typing.

TEST(DirectionOf, MetricFamilies)
{
    EXPECT_EQ(DirectionOf("micro_repeats.trie_insert_tokens_per_sec"),
              Direction::kHigherIsBetter);
    EXPECT_EQ(DirectionOf("steady_state_mining.rows.0.improvement"),
              Direction::kHigherIsBetter);
    EXPECT_EQ(DirectionOf("fig7.rows.2.speedup"),
              Direction::kHigherIsBetter);
    EXPECT_EQ(DirectionOf("fig_multitenant.rows.1.adoption_hit_rate"),
              Direction::kHigherIsBetter);
    EXPECT_EQ(DirectionOf("steady_state_mining.allocs_per_ingest"),
              Direction::kLowerIsBetter);
    // Counters, config echoes and latencies are not auto-gated.
    EXPECT_EQ(DirectionOf("micro_repeats.config.tokens"),
              Direction::kUntracked);
    EXPECT_EQ(DirectionOf("fig_multitenant.rows.0.p99_issue_latency"),
              Direction::kUntracked);
    EXPECT_EQ(DirectionOf("replication_scaling.hardware_concurrency"),
              Direction::kUntracked);
}

TEST(DirectionOf, AllocsPerBeatsSuffixTyping)
{
    // An allocation-rate metric is lower-is-better even when its name
    // also ends in a higher-is-better suffix: the substring rule wins.
    EXPECT_EQ(DirectionOf("x.allocs_per_sec"),
              Direction::kLowerIsBetter);
}

// ---------------------------------------------------------------------------
// The threshold boundary. Regression requires moving strictly past
// threshold: exactly -10% (or +10% for lower-is-better) still passes.

TEST(Regressed, HigherIsBetterBoundary)
{
    const Direction dir = Direction::kHigherIsBetter;
    EXPECT_FALSE(Regressed(dir, 100.0, 100.0, 0.10));
    EXPECT_FALSE(Regressed(dir, 100.0, 90.0, 0.10));  // exactly -10%
    EXPECT_TRUE(Regressed(dir, 100.0, 89.9, 0.10));
    EXPECT_FALSE(Regressed(dir, 100.0, 250.0, 0.10));  // improvement
    // A zero (or negative) baseline is no reference at all.
    EXPECT_FALSE(Regressed(dir, 0.0, 0.0, 0.10));
    EXPECT_FALSE(Regressed(dir, 0.0, -5.0, 0.10));
}

TEST(Regressed, LowerIsBetterBoundary)
{
    const Direction dir = Direction::kLowerIsBetter;
    EXPECT_FALSE(Regressed(dir, 100.0, 110.0, 0.10));  // exactly +10%
    EXPECT_TRUE(Regressed(dir, 100.0, 110.1, 0.10));
    EXPECT_FALSE(Regressed(dir, 100.0, 10.0, 0.10));  // improvement
    // allocs_per_* == 0 is a contract value: any materially nonzero
    // current is a regression, gated absolutely against the threshold.
    EXPECT_FALSE(Regressed(dir, 0.0, 0.0, 0.10));
    EXPECT_FALSE(Regressed(dir, 0.0, 0.1, 0.10));
    EXPECT_TRUE(Regressed(dir, 0.0, 0.2, 0.10));
}

// ---------------------------------------------------------------------------
// The flattening JSON reader.

TEST(FlatJsonParser, FlattensNestedObjectsAndArrays)
{
    const std::string text = R"({
      "top": 1,
      "section": {
        "name": "ignored-string",
        "nested": { "value": 2.5 },
        "rows": [ { "x": 3 }, { "x": 4 } ],
        "flags": [true, false, null],
        "empty_obj": {},
        "empty_arr": []
      },
      "negative": -1.5e2
    })";
    const std::map<std::string, double> values =
        FlatJsonParser(text).Parse();
    EXPECT_EQ(values.size(), 5u);
    EXPECT_EQ(values.at("top"), 1.0);
    EXPECT_EQ(values.at("section.nested.value"), 2.5);
    EXPECT_EQ(values.at("section.rows.0.x"), 3.0);
    EXPECT_EQ(values.at("section.rows.1.x"), 4.0);
    EXPECT_EQ(values.at("negative"), -150.0);
}

TEST(FlatJsonParser, RejectsMalformedInput)
{
    EXPECT_THROW(FlatJsonParser(R"({"a": })").Parse(),
                 std::runtime_error);
    EXPECT_THROW(FlatJsonParser(R"({"a": 1} trailing)").Parse(),
                 std::runtime_error);
    EXPECT_THROW(FlatJsonParser(R"({"a": 1)").Parse(),
                 std::runtime_error);
}

// ---------------------------------------------------------------------------
// Rewriting one bench's records in the shared record file.

TEST(KeepOtherJsonMembers, CarriesEveryRecordTheWriterDoesNotOwn)
{
    // The rewriting bench owns the top-level scalars and its own
    // members; every other object member is another bench's record.
    const std::string existing = R"({
  "bench": "old",
  "dropped_rate": 1,
  "own": {"x": 1},
  "fig_a": {"s": "a,}", "v": [1, 2]},
  "fig_b": {"nested": {"y": 2}}
}
)";
    const std::string fresh = R"({
  "bench": "new",
  "own": {"x": 3}
}
)";
    const std::string merged = KeepOtherJsonMembers(existing, fresh);
    EXPECT_EQ(merged, R"({
  "bench": "new",
  "own": {"x": 3},
  "fig_a": {"s": "a,}", "v": [1, 2]},
  "fig_b": {"nested": {"y": 2}}
}
)");
    EXPECT_NO_THROW(FlatJsonParser(merged).Parse());
    EXPECT_EQ(RenderJsonMembers(TopLevelJsonMembers(merged)), merged);
    // Rewriting again changes nothing; a missing file keeps the fresh
    // record alone.
    EXPECT_EQ(KeepOtherJsonMembers(merged, fresh), merged);
    EXPECT_EQ(KeepOtherJsonMembers("", fresh), fresh);
}

// ---------------------------------------------------------------------------
// The tool end to end, over real temp files.

class BenchCompareTool : public ::testing::Test {
  protected:
    std::string WriteRecord(const std::string& name,
                            const std::string& json)
    {
        const std::string path =
            ::testing::TempDir() + "bench_compare_test_" + name + ".json";
        std::ofstream out(path, std::ios::trunc);
        out << json;
        return path;
    }

    int Run(const CompareOptions& options)
    {
        std::FILE* sink = std::tmpfile();
        const int code = RunBenchCompare(options, sink, sink);
        std::fclose(sink);
        return code;
    }
};

TEST_F(BenchCompareTool, IdenticalRecordsPass)
{
    CompareOptions options;
    options.baseline_path = WriteRecord(
        "base_ok", R"({"m": {"tokens_per_sec": 100, "allocs_per_op": 0}})");
    options.current_path = options.baseline_path;
    EXPECT_EQ(Run(options), 0);
}

TEST_F(BenchCompareTool, RegressionFailsWithExitOne)
{
    CompareOptions options;
    options.baseline_path =
        WriteRecord("base_reg", R"({"m": {"tokens_per_sec": 100}})");
    options.current_path =
        WriteRecord("cur_reg", R"({"m": {"tokens_per_sec": 80}})");
    EXPECT_EQ(Run(options), 1);

    // The same pair under a looser threshold passes.
    options.threshold = 0.25;
    EXPECT_EQ(Run(options), 0);
}

TEST_F(BenchCompareTool, DroppedMetricIsReportedNotFatal)
{
    // A baseline metric absent from current is [dropped], not a
    // regression — only --require makes absence fatal.
    CompareOptions options;
    options.baseline_path = WriteRecord(
        "base_drop",
        R"({"m": {"tokens_per_sec": 100, "old_per_sec": 50}})");
    options.current_path =
        WriteRecord("cur_drop", R"({"m": {"tokens_per_sec": 100}})");
    EXPECT_EQ(Run(options), 0);
}

TEST_F(BenchCompareTool, RequiredRecordMissingIsExitTwo)
{
    CompareOptions options;
    options.baseline_path =
        WriteRecord("base_req", R"({"m": {"tokens_per_sec": 100}})");
    options.current_path =
        WriteRecord("cur_req", R"({"m": {"tokens_per_sec": 100}})");
    options.required = {"fig_multitenant"};
    EXPECT_EQ(Run(options), 2);

    // Present (as a path substring in the current file) passes, and
    // requirement is judged against *current*, not baseline.
    options.current_path = WriteRecord(
        "cur_req2",
        R"({"m": {"tokens_per_sec": 100},
            "fig_multitenant": {"rows": [{"adoption_hit_rate": 0.75}]}})");
    EXPECT_EQ(Run(options), 0);
}

TEST_F(BenchCompareTool, MetricFilterRestrictsComparison)
{
    CompareOptions options;
    options.baseline_path = WriteRecord(
        "base_filter",
        R"({"a": {"x_per_sec": 100}, "b": {"y_per_sec": 100}})");
    options.current_path = WriteRecord(
        "cur_filter",
        R"({"a": {"x_per_sec": 100}, "b": {"y_per_sec": 10}})");
    EXPECT_EQ(Run(options), 1);  // b regressed
    options.metrics = {"a."};    // ...but it is filtered out
    EXPECT_EQ(Run(options), 0);
}

TEST_F(BenchCompareTool, UnreadableFileIsExitTwo)
{
    CompareOptions options;
    options.baseline_path =
        ::testing::TempDir() + "bench_compare_test_does_not_exist.json";
    options.current_path =
        WriteRecord("cur_noent", R"({"m": {"tokens_per_sec": 1}})");
    EXPECT_EQ(Run(options), 2);
}

}  // namespace
}  // namespace apo::bench
