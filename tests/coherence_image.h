/**
 * @file
 * A runtime's coherence state as bytes: the dependence-analyzer and
 * region-forest sections of its checkpoint image. Two runtimes that
 * issued the same stream, one replaying traces and one analysing every
 * launch, must agree on these byte for byte — edges alone would miss a
 * wrong replay summary until a later operation read the stale entry.
 */
#ifndef APOPHENIA_TESTS_COHERENCE_IMAGE_H
#define APOPHENIA_TESTS_COHERENCE_IMAGE_H

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "fault/checkpoint.h"
#include "runtime/runtime.h"

namespace apo::test {

/** The payload of section `tag` of a checkpoint image. The framing is
 * flat (fault/checkpoint.h): a 16-byte header, then per section its
 * tag, payload length and checksum as 8-byte words and the payload. */
inline std::vector<std::uint8_t> CheckpointSection(
    const std::vector<std::uint8_t>& image, fault::SectionTag tag)
{
    auto word = [&image](std::size_t at) {
        std::uint64_t value = 0;
        for (std::size_t b = 0; b < 8; ++b) {
            value |= static_cast<std::uint64_t>(image.at(at + b)) << (8 * b);
        }
        return value;
    };
    for (std::size_t at = 16; at < image.size();) {
        const std::uint64_t found = word(at);
        const std::size_t length = static_cast<std::size_t>(word(at + 8));
        at += 24;
        if (found == static_cast<std::uint64_t>(tag)) {
            return {image.begin() + static_cast<std::ptrdiff_t>(at),
                    image.begin() + static_cast<std::ptrdiff_t>(at + length)};
        }
        at += length;
    }
    throw std::out_of_range("checkpoint image has no such section");
}

/** The dependence-analyzer section followed by the region-forest
 * section of a quiescent runtime's checkpoint image. */
inline std::vector<std::uint8_t> CoherenceImage(const rt::Runtime& runtime)
{
    fault::CheckpointWriter writer;
    runtime.SaveState(writer);
    std::vector<std::uint8_t> bytes = CheckpointSection(
        writer.Image(), fault::SectionTag::kDependenceAnalyzer);
    const std::vector<std::uint8_t> forest =
        CheckpointSection(writer.Image(), fault::SectionTag::kRegionForest);
    bytes.insert(bytes.end(), forest.begin(), forest.end());
    return bytes;
}

}  // namespace apo::test

#endif  // APOPHENIA_TESTS_COHERENCE_IMAGE_H
