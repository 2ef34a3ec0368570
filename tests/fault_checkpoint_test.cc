/**
 * @file
 * Tests for the fault:: checkpoint substrate, on the images a
 * rejoining cluster node installs: a runtime image that is truncated
 * or bit-flipped, opened at the wrong section, restored over a used
 * runtime or taken mid-trace is rejected with a typed
 * fault::CheckpointError, and every diagnostic names the failing
 * section and byte offset. The crash-and-rejoin round trip itself is
 * tested on sim::Cluster (fault_membership_test.cc).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/s3d.h"
#include "core/apophenia.h"
#include "fault/checkpoint.h"
#include "runtime/runtime.h"

namespace apo {
namespace {

core::ApopheniaConfig SmallConfig()
{
    core::ApopheniaConfig config;
    config.min_trace_length = 5;
    config.batchsize = 400;
    config.multi_scale_factor = 50;
    return config;
}

// ---------------------------------------------------------------------------
// Corruption detection: every malformed image is a typed error.

std::vector<std::uint8_t> SampleImage()
{
    // A real (small) image of what a rejoining node installs: the
    // runtime after an s3d prefix issued through the front end.
    apps::MachineConfig machine{.nodes = 2, .gpus_per_node = 2};
    rt::RuntimeOptions rt_options;
    rt_options.nodes = machine.nodes;
    rt::Runtime runtime(rt_options);
    core::Apophenia apophenia(runtime, SmallConfig());
    apps::S3dApplication app(apps::S3dOptions{.machine = machine});
    app.Setup(apophenia);
    for (std::size_t iter = 0; iter < 10; ++iter) {
        app.Iteration(apophenia, iter, /*manual_tracing=*/false);
    }
    apophenia.Flush();  // closes any open trace: quiescent
    EXPECT_GT(runtime.Stats().traces_recorded, 0u);
    fault::CheckpointWriter writer;
    runtime.SaveState(writer);
    return writer.TakeImage();
}

void ExpectRejected(const std::vector<std::uint8_t>& image)
{
    // The restore must throw the typed error and must not be reported
    // as success on any partially-valid prefix.
    EXPECT_THROW(
        {
            rt::RuntimeOptions rt_options;
            rt_options.nodes = 2;
            rt::Runtime runtime(rt_options);
            fault::CheckpointReader reader(image);
            runtime.LoadState(reader);
        },
        fault::CheckpointError);
}

TEST(CheckpointCorruption, TruncatedImagesAreRejected)
{
    const std::vector<std::uint8_t> image = SampleImage();
    ASSERT_GT(image.size(), 64u);
    // Cut inside the header, inside a section frame, and inside the
    // trailing payload.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{7}, std::size_t{15},
          image.size() / 3, image.size() / 2, image.size() - 1}) {
        SCOPED_TRACE("keep " + std::to_string(keep));
        ExpectRejected(std::vector<std::uint8_t>(
            image.begin(),
            image.begin() + static_cast<std::ptrdiff_t>(keep)));
    }
}

TEST(CheckpointCorruption, BitFlippedImagesAreRejected)
{
    const std::vector<std::uint8_t> image = SampleImage();
    // Flip one bit in the magic, the version, a section frame, and
    // several payload positions: the checksum (or header check) must
    // catch every one of them.
    for (const std::size_t at :
         {std::size_t{3}, std::size_t{12}, std::size_t{24},
          image.size() / 4, image.size() / 2, image.size() - 9}) {
        SCOPED_TRACE("flip at " + std::to_string(at));
        std::vector<std::uint8_t> corrupt = image;
        corrupt[at] ^= 0x20;
        ExpectRejected(corrupt);
    }
}

TEST(CheckpointCorruption, WrongSectionTagIsRejected)
{
    // A bare runtime image opens with the runtime's section, not the
    // cluster's node section a rejoiner reads first.
    const std::vector<std::uint8_t> image = SampleImage();
    fault::CheckpointReader reader(image);
    EXPECT_THROW(reader.BeginSection(fault::SectionTag::kClusterNode),
                 fault::CheckpointError);
}

TEST(CheckpointCorruption, SaveRequiresQuiescentRuntime)
{
    rt::Runtime runtime;
    const rt::RegionId r = runtime.CreateRegion();
    runtime.BeginTrace(7);
    runtime.ExecuteTask(rt::TaskLaunch{
        1, {{r, 0, rt::Privilege::kReadWrite, 0}}});
    EXPECT_FALSE(runtime.Quiescent());
    fault::CheckpointWriter writer;
    EXPECT_THROW(runtime.SaveState(writer), fault::CheckpointError);
}

TEST(CheckpointCorruption, LoadRequiresFreshTargets)
{
    const std::vector<std::uint8_t> image = SampleImage();
    rt::RuntimeOptions rt_options;
    rt_options.nodes = 2;
    {
        // A fresh runtime installs the whole image.
        rt::Runtime fresh(rt_options);
        fault::CheckpointReader reader(image);
        EXPECT_NO_THROW(fresh.LoadState(reader));
        EXPECT_TRUE(reader.AtEnd());
    }
    // A used runtime must refuse to restore over itself.
    rt::Runtime used(rt_options);
    const rt::RegionId r = used.CreateRegion();
    used.ExecuteTask(rt::TaskLaunch{
        1, {{r, 0, rt::Privilege::kReadWrite, 0}}});
    fault::CheckpointReader reader(image);
    EXPECT_THROW(used.LoadState(reader), fault::CheckpointError);
}

/** Run `fn`, expect a CheckpointError, and assert its message
 * contains every needle — the diagnostics contract: name the failing
 * section (by name and tag) and the byte offset, and keep truncation
 * distinguishable from corruption. */
template <typename Fn>
void ExpectErrorMentions(Fn&& fn,
                         std::initializer_list<std::string_view> needles)
{
    try {
        fn();
        ADD_FAILURE() << "expected a fault::CheckpointError";
    } catch (const fault::CheckpointError& error) {
        const std::string what = error.what();
        for (const std::string_view needle : needles) {
            EXPECT_NE(what.find(needle), std::string::npos)
                << "missing \"" << needle << "\" in: " << what;
        }
    }
}

TEST(CheckpointDiagnostics, MessagesNameSectionTagAndOffset)
{
    // Image layout: 16-byte header, 24-byte section frame (tag at
    // offset 16), 16 payload bytes at offset 40 — 56 bytes total.
    fault::CheckpointWriter writer;
    writer.BeginSection(fault::SectionTag::kTraceCache);
    writer.U64(1);
    writer.U64(2);
    writer.EndSection();
    const std::vector<std::uint8_t> image = writer.Image();
    ASSERT_EQ(image.size(), 56u);

    // Wrong tag: both sections named, with numbers, at the frame's
    // offset.
    ExpectErrorMentions(
        [&] {
            fault::CheckpointReader reader(image);
            reader.BeginSection(fault::SectionTag::kClusterNode);
        },
        {"tag mismatch", "'cluster-node' (tag 14)",
         "'trace-cache' (tag 5)", "byte offset 16"});

    // Truncated payload: the claimed length vs what remains, called
    // truncation (a crashed writer) — not a checksum mismatch.
    ExpectErrorMentions(
        [&] {
            const std::vector<std::uint8_t> cut(image.begin(),
                                                image.end() - 8);
            fault::CheckpointReader reader(cut);
            reader.BeginSection(fault::SectionTag::kTraceCache);
        },
        {"'trace-cache' (tag 5)", "truncated", "claims 16 bytes",
         "8 remain", "byte offset 40"});

    // A flipped payload bit: a checksum mismatch (bit rot), not a
    // truncation.
    ExpectErrorMentions(
        [&] {
            std::vector<std::uint8_t> corrupt = image;
            corrupt[55] ^= 0x01;
            fault::CheckpointReader reader(corrupt);
            reader.BeginSection(fault::SectionTag::kTraceCache);
        },
        {"'trace-cache' (tag 5)", "checksum mismatch",
         "16 payload bytes", "byte offset 40"});

    // Over-read: the section is named with both the read position and
    // the section end.
    ExpectErrorMentions(
        [&] {
            fault::CheckpointReader reader(image);
            reader.BeginSection(fault::SectionTag::kTraceCache);
            reader.U64();
            reader.U64();
            reader.U64();
        },
        {"past the end", "'trace-cache' (tag 5)", "byte offset 56",
         "ends at 56"});

    // Under-read: EndSection names the section and where the reader
    // stopped.
    ExpectErrorMentions(
        [&] {
            fault::CheckpointReader reader(image);
            reader.BeginSection(fault::SectionTag::kTraceCache);
            reader.U64();
            reader.EndSection();
        },
        {"not fully consumed", "'trace-cache' (tag 5)",
         "byte offset 48", "ends at 56"});
}

TEST(CheckpointDiagnostics, SectionNamesCoverEveryTag)
{
    for (const std::uint64_t raw : {1, 2, 3, 4, 5, 6, 14}) {
        EXPECT_NE(
            fault::SectionName(static_cast<fault::SectionTag>(raw)),
            "unknown")
            << "tag " << raw;
    }
    // Tags 7 to 13 are retired: no section carries them.
    for (const std::uint64_t raw : {7, 8, 9, 10, 11, 12, 13, 99}) {
        EXPECT_EQ(
            fault::SectionName(static_cast<fault::SectionTag>(raw)),
            "unknown")
            << "tag " << raw;
    }
}

}  // namespace
}  // namespace apo
