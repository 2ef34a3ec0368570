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
 */
#include <gtest/gtest.h>

#include <cstdint>

#include "apps/htr.h"
#include "apps/s3d.h"
#include "bench_util.h"

namespace apo::sim {
namespace {

struct Golden {
    std::uint64_t stream_digest = 0;
    std::uint64_t stream_ops = 0;
    std::uint64_t candidate_digest = 0;
    std::uint64_t traces_fired = 0;
    std::uint64_t trace_replays = 0;
};

void ExpectGolden(const ExperimentResult& got, const Golden& want)
{
    EXPECT_EQ(got.stream_digest, want.stream_digest);
    EXPECT_EQ(got.stream_digest_ops, want.stream_ops);
    EXPECT_EQ(got.candidate_digest, want.candidate_digest);
    EXPECT_EQ(got.apophenia_stats.traces_fired, want.traces_fired);
    EXPECT_EQ(got.apophenia_stats.trace_replays, want.trace_replays);
    // The pins are only meaningful if the run exercised the replayer.
    EXPECT_GT(got.apophenia_stats.trace_replays, 0u);
}

constexpr apps::MachineConfig kMachine{.nodes = 4, .gpus_per_node = 4};

TEST(GoldenDigest, S3dAuto)
{
    const ExperimentResult result = bench::RunOne<apps::S3dApplication>(
        apps::S3dOptions{.machine = kMachine}, TracingMode::kAuto, kMachine,
        200, bench::ArtifactConfig());
    ExpectGolden(result, {.stream_digest = 14008167252385435759ULL,
                          .stream_ops = 52157,
                          .candidate_digest = 3001877225209103652ULL,
                          .traces_fired = 163,
                          .trace_replays = 150});
}

TEST(GoldenDigest, HtrAuto)
{
    const ExperimentResult result = bench::RunOne<apps::HtrApplication>(
        apps::HtrOptions{.machine = kMachine}, TracingMode::kAuto, kMachine,
        100, bench::ArtifactConfig());
    ExpectGolden(result, {.stream_digest = 9719857366692698169ULL,
                          .stream_ops = 48192,
                          .candidate_digest = 9424043216078930817ULL,
                          .traces_fired = 127,
                          .trace_replays = 122});
}

}  // namespace
}  // namespace apo::sim
