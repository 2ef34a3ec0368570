#include "fault/checkpoint.h"

#include <cassert>
#include <cstring>

#include "support/hash.h"

namespace apo::fault {

namespace {

void AppendU64(std::vector<std::uint8_t>& bytes, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        bytes.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
    }
}

void PatchU64(std::vector<std::uint8_t>& bytes, std::size_t at,
              std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        bytes[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
}

std::uint64_t ReadU64At(std::span<const std::uint8_t> bytes, std::size_t at)
{
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
        value |= static_cast<std::uint64_t>(bytes[at + i]) << (8 * i);
    }
    return value;
}

/** "'trace-cache' (tag 5)" — how every diagnostic names a section. */
std::string Describe(SectionTag tag)
{
    return "'" + std::string(SectionName(tag)) + "' (tag " +
           std::to_string(static_cast<std::uint64_t>(tag)) + ")";
}

std::string Describe(std::uint64_t raw)
{
    return Describe(static_cast<SectionTag>(raw));
}

}  // namespace

std::string_view
SectionName(SectionTag tag)
{
    switch (tag) {
        case SectionTag::kOperationLog: return "operation-log";
        case SectionTag::kRegionAllocator: return "region-allocator";
        case SectionTag::kRegionForest: return "region-forest";
        case SectionTag::kDependenceAnalyzer:
            return "dependence-analyzer";
        case SectionTag::kTraceCache: return "trace-cache";
        case SectionTag::kRuntime: return "runtime";
        case SectionTag::kClusterNode: return "cluster-node";
    }
    return "unknown";
}

std::uint64_t
ChecksumBytes(std::span<const std::uint8_t> payload)
{
    std::uint64_t sum = support::HashCombine(0x636b70746368656bULL,
                                             payload.size());
    std::size_t at = 0;
    while (at + 8 <= payload.size()) {
        sum = support::HashCombine(sum, ReadU64At(payload, at));
        at += 8;
    }
    std::uint64_t tail = 0;
    for (std::size_t i = 0; at + i < payload.size(); ++i) {
        tail |= static_cast<std::uint64_t>(payload[at + i]) << (8 * i);
    }
    if (at < payload.size()) {
        sum = support::HashCombine(sum, tail);
    }
    return sum;
}

CheckpointWriter::CheckpointWriter()
{
    AppendU64(bytes_, kCheckpointMagic);
    AppendU64(bytes_, kCheckpointVersion);
}

void
CheckpointWriter::BeginSection(SectionTag tag)
{
    assert(!in_section_ && "checkpoint sections cannot nest");
    in_section_ = true;
    AppendU64(bytes_, static_cast<std::uint64_t>(tag));
    AppendU64(bytes_, 0);  // payload length, patched at EndSection
    AppendU64(bytes_, 0);  // payload checksum, patched at EndSection
    section_payload_at_ = bytes_.size();
}

void
CheckpointWriter::EndSection()
{
    assert(in_section_ && "EndSection without BeginSection");
    in_section_ = false;
    const std::size_t payload_len = bytes_.size() - section_payload_at_;
    const std::span<const std::uint8_t> payload(
        bytes_.data() + section_payload_at_, payload_len);
    PatchU64(bytes_, section_payload_at_ - 16, payload_len);
    PatchU64(bytes_, section_payload_at_ - 8, ChecksumBytes(payload));
}

void
CheckpointWriter::U64(std::uint64_t value)
{
    assert(in_section_ && "primitive writes must sit inside a section");
    AppendU64(bytes_, value);
}

void
CheckpointWriter::VecU64(std::span<const std::uint64_t> values)
{
    U64(values.size());
    for (const std::uint64_t v : values) {
        U64(v);
    }
}

const std::vector<std::uint8_t>&
CheckpointWriter::Image() const
{
    assert(!in_section_ && "finish the open section before Image()");
    return bytes_;
}

std::vector<std::uint8_t>
CheckpointWriter::TakeImage()
{
    assert(!in_section_ && "finish the open section before TakeImage()");
    return std::move(bytes_);
}

CheckpointReader::CheckpointReader(std::span<const std::uint8_t> image)
    : bytes_(image)
{
    if (bytes_.size() < 16) {
        throw CheckpointError("checkpoint image truncated: no header");
    }
    if (ReadU64At(bytes_, 0) != kCheckpointMagic) {
        throw CheckpointError("checkpoint image has wrong magic");
    }
    const std::uint64_t version = ReadU64At(bytes_, 8);
    if (version != kCheckpointVersion) {
        throw CheckpointError("unsupported checkpoint version " +
                              std::to_string(version));
    }
    at_ = 16;
}

std::uint64_t
CheckpointReader::RawU64()
{
    if (at_ + 8 > bytes_.size()) {
        throw CheckpointError(
            "checkpoint image truncated mid-value at byte offset " +
            std::to_string(at_) + " of " +
            std::to_string(bytes_.size()));
    }
    const std::uint64_t value = ReadU64At(bytes_, at_);
    at_ += 8;
    return value;
}

void
CheckpointReader::BeginSection(SectionTag tag)
{
    if (in_section_) {
        throw CheckpointError(
            "checkpoint sections cannot nest: BeginSection " +
            Describe(tag) + " while section " + Describe(section_tag_) +
            " is open at byte offset " + std::to_string(at_));
    }
    if (at_ + 24 > bytes_.size()) {
        throw CheckpointError(
            "checkpoint image truncated: no header for section " +
            Describe(tag) + " at byte offset " + std::to_string(at_) +
            " (" + std::to_string(bytes_.size() - at_) +
            " bytes remain, 24 needed)");
    }
    const std::uint64_t found = ReadU64At(bytes_, at_);
    if (found != static_cast<std::uint64_t>(tag)) {
        throw CheckpointError(
            "checkpoint section tag mismatch at byte offset " +
            std::to_string(at_) + ": expected " + Describe(tag) +
            ", found " + Describe(found));
    }
    const std::uint64_t payload_len = ReadU64At(bytes_, at_ + 8);
    const std::uint64_t checksum = ReadU64At(bytes_, at_ + 16);
    at_ += 24;
    if (payload_len > bytes_.size() - at_) {
        // Truncation and corruption are distinct failures: a short
        // image is a crashed writer, a checksum mismatch is bit rot.
        throw CheckpointError(
            "checkpoint section " + Describe(tag) +
            " truncated at byte offset " + std::to_string(at_) +
            ": payload claims " + std::to_string(payload_len) +
            " bytes, " + std::to_string(bytes_.size() - at_) +
            " remain");
    }
    const std::span<const std::uint8_t> payload(bytes_.data() + at_,
                                                payload_len);
    if (ChecksumBytes(payload) != checksum) {
        throw CheckpointError(
            "checkpoint section " + Describe(tag) +
            " checksum mismatch over " + std::to_string(payload_len) +
            " payload bytes at byte offset " + std::to_string(at_));
    }
    section_tag_ = tag;
    section_end_ = at_ + payload_len;
    in_section_ = true;
}

void
CheckpointReader::EndSection()
{
    if (!in_section_) {
        throw CheckpointError(
            "EndSection without BeginSection at byte offset " +
            std::to_string(at_));
    }
    if (at_ != section_end_) {
        throw CheckpointError(
            "checkpoint section " + Describe(section_tag_) +
            " not fully consumed: reader stopped at byte offset " +
            std::to_string(at_) + ", section ends at " +
            std::to_string(section_end_));
    }
    in_section_ = false;
}

std::uint64_t
CheckpointReader::U64()
{
    if (!in_section_) {
        throw CheckpointError(
            "checkpoint read outside any section at byte offset " +
            std::to_string(at_));
    }
    if (at_ + 8 > section_end_) {
        throw CheckpointError(
            "checkpoint read past the end of section " +
            Describe(section_tag_) + " at byte offset " +
            std::to_string(at_) + " (section ends at " +
            std::to_string(section_end_) + ")");
    }
    return RawU64();
}

bool
CheckpointReader::Bool()
{
    const std::uint64_t value = U64();
    if (value > 1) {
        throw CheckpointError(
            "checkpoint bool out of range in section " +
            Describe(section_tag_) + " at byte offset " +
            std::to_string(at_ - 8) + ": value " +
            std::to_string(value));
    }
    return value == 1;
}

std::uint64_t
CheckpointReader::Count()
{
    const std::uint64_t count = U64();
    if (count > (section_end_ - at_) / 8) {
        throw CheckpointError(
            "checkpoint element count " + std::to_string(count) +
            " exceeds section " + Describe(section_tag_) +
            " at byte offset " + std::to_string(at_ - 8) + " (" +
            std::to_string(section_end_ - at_) +
            " payload bytes remain)");
    }
    return count;
}

std::vector<std::uint64_t>
CheckpointReader::VecU64()
{
    const std::uint64_t count = Count();
    std::vector<std::uint64_t> values;
    values.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        values.push_back(U64());
    }
    return values;
}

bool
CheckpointReader::AtEnd() const
{
    return at_ == bytes_.size();
}

}  // namespace apo::fault
