/**
 * @file
 * Golden digests of the matcher: S3D and HTR in auto mode, at a fixed
 * small size under the artifact configuration, must issue exactly the
 * stream, ingest exactly the candidates and fire exactly the traces
 * pinned below.
 *
 * Every other digest test compares two configurations of one build,
 * so a rewrite of the matching path that is wrong in the same way in
 * both passes them. These constants were captured from the hash-map
 * matcher that preceded the inline-edge trie; any change to a replay
 * decision fails here. A deliberate behaviour change updates them and
 * says why.
 *
 * The stream digest's fold itself changed once, to the lane-parallel
 * fold: each golden keeps the value the earlier fold gave, and the
 * test folds the same run's log with that fold (the oracle in
 * streams_identical.h) to show the stream did not move.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/htr.h"
#include "apps/s3d.h"
#include "bench_util.h"
#include "streams_identical.h"

namespace apo::sim {
namespace {

struct Golden {
    std::uint64_t stream_digest = 0;
    /** The earlier fold's digest of the same stream. */
    std::uint64_t legacy_stream_digest = 0;
    std::uint64_t stream_ops = 0;
    std::uint64_t candidate_digest = 0;
    std::uint64_t traces_fired = 0;
    std::uint64_t trace_replays = 0;
};

constexpr apps::MachineConfig kMachine{.nodes = 4, .gpus_per_node = 4};

/** Run `iterations` of App in auto mode as RunExperiment does, and
 * check the result and the run's log against `want`. */
template <typename App, typename Options>
void ExpectGolden(const Options& app_options, std::size_t iterations,
                  const Golden& want)
{
    ExperimentOptions options;
    options.mode = TracingMode::kAuto;
    options.machine = kMachine;
    options.iterations = iterations;
    options.auto_config = bench::ArtifactConfig();
    App app(app_options);
    ExperimentStack stack(options);
    api::Frontend& front = stack.Front();
    app.Setup(front);
    std::vector<std::size_t> boundaries;
    for (std::size_t iter = 0; iter < iterations; ++iter) {
        app.Iteration(front, iter, false);
        boundaries.push_back(
            static_cast<std::size_t>(front.Stats().tasks_executed));
    }
    front.Flush();
    const ExperimentResult got = stack.Finish(boundaries);

    EXPECT_EQ(got.stream_digest, want.stream_digest);
    EXPECT_EQ(got.stream_digest_ops, want.stream_ops);
    const test::LegacyStreamDigest legacy =
        test::LegacyStreamDigest::Of(stack.ObservedRuntime().Log());
    EXPECT_EQ(legacy.Value(), want.legacy_stream_digest);
    EXPECT_EQ(legacy.Count(), want.stream_ops);
    EXPECT_EQ(got.candidate_digest, want.candidate_digest);
    EXPECT_EQ(got.apophenia_stats.traces_fired, want.traces_fired);
    EXPECT_EQ(got.apophenia_stats.trace_replays, want.trace_replays);
    // The pins are only meaningful if the run exercised the replayer.
    EXPECT_GT(got.apophenia_stats.trace_replays, 0u);
}

TEST(GoldenDigest, S3dAuto)
{
    ExpectGolden<apps::S3dApplication>(
        apps::S3dOptions{.machine = kMachine}, 200,
        {.stream_digest = 8786073818243241266ULL,
         .legacy_stream_digest = 14008167252385435759ULL,
         .stream_ops = 52157,
         .candidate_digest = 3001877225209103652ULL,
         .traces_fired = 163,
         .trace_replays = 150});
}

TEST(GoldenDigest, HtrAuto)
{
    ExpectGolden<apps::HtrApplication>(
        apps::HtrOptions{.machine = kMachine}, 100,
        {.stream_digest = 5029827610161197972ULL,
         .legacy_stream_digest = 9719857366692698169ULL,
         .stream_ops = 48192,
         .candidate_digest = 9424043216078930817ULL,
         .traces_fired = 127,
         .trace_replays = 122});
}

}  // namespace
}  // namespace apo::sim
