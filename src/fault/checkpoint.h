/**
 * @file
 * Durable finder-state snapshots: the serialization substrate of the
 * fault-tolerance layer.
 *
 * A checkpoint is a versioned, length-prefixed binary image of one
 * node's finder state (operation-log cursor, trace cache, candidate
 * trie, history ring, Apophenia replay cursors, stream digest). No
 * mining memo is part of it: a restored finder starts with a cold
 * memo and makes the same decisions. The format is deliberately dumb: a fixed
 * header, then a sequence of tagged sections, each carrying its
 * payload length and a checksum of the payload bytes. Readers verify
 * the magic, the version, every section tag they open, and every
 * section checksum before handing a single value to the caller, so a
 * truncated or bit-flipped image surfaces as a typed CheckpointError
 * instead of undefined behaviour.
 *
 * The layer sits directly above support/ so every other layer (core,
 * runtime, sim, svc) can expose SaveState/LoadState hooks without new
 * dependency edges. All integers are stored as fixed-width 64-bit
 * little-endian values; doubles are bit-cast through uint64_t — the
 * restore path must be bit-exact, not merely approximately equal,
 * because restored state has to re-converge to bit-identical replay
 * decisions.
 */
#ifndef APOPHENIA_FAULT_CHECKPOINT_H
#define APOPHENIA_FAULT_CHECKPOINT_H

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace apo::fault {

/** Every malformed-image condition: bad magic, unsupported version,
 * unexpected section tag, payload underrun/overrun, or a checksum
 * mismatch. Callers treat any CheckpointError as "this image is not
 * usable" — never as partially-restored state (LoadState hooks throw
 * before mutating, or the owning object is discarded wholesale). */
class CheckpointError : public std::runtime_error {
  public:
    explicit CheckpointError(const std::string& what)
        : std::runtime_error(what)
    {
    }
};

/** Section tags. The tag is written into the image, so renumbering is
 * a format change (bump kCheckpointVersion). */
enum class SectionTag : std::uint64_t {
    kOperationLog = 1,
    kRegionAllocator = 2,
    kRegionForest = 3,
    kDependenceAnalyzer = 4,
    kTraceCache = 5,
    kRuntime = 6,
    kCandidateTrie = 7,
    kHistoryRing = 8,
    kTraceFinder = 10,
    kApophenia = 11,
    kStreamDigest = 12,
    kClusterNode = 14,
};

/** Human-readable name of a section tag — diagnostic messages name
 * the failing section instead of a bare number. Unknown tags (a
 * corrupt or future image) map to "unknown". */
std::string_view SectionName(SectionTag tag);

inline constexpr std::uint64_t kCheckpointMagic = 0x41504f434b505431ULL;
inline constexpr std::uint64_t kCheckpointVersion = 2;

/**
 * Serializes state into an in-memory checkpoint image.
 *
 * Usage: open a section, write primitives, close the section; repeat.
 * Sections cannot nest (the framing is flat on purpose — a reader can
 * skip a section it does not understand by its length alone).
 */
class CheckpointWriter {
  public:
    CheckpointWriter();

    void BeginSection(SectionTag tag);
    void EndSection();

    void U64(std::uint64_t value);
    void F64(double value) { U64(std::bit_cast<std::uint64_t>(value)); }
    void Bool(bool value) { U64(value ? 1 : 0); }
    /** A length-prefixed vector of 64-bit values. */
    void VecU64(std::span<const std::uint64_t> values);

    /** The finished image (header + all closed sections). */
    const std::vector<std::uint8_t>& Image() const;
    std::vector<std::uint8_t> TakeImage();

  private:
    std::vector<std::uint8_t> bytes_;
    std::size_t section_payload_at_ = 0;  // payload start of open section
    bool in_section_ = false;
};

/**
 * Validates and reads a checkpoint image produced by CheckpointWriter.
 *
 * The constructor verifies the header; BeginSection verifies the tag,
 * the declared payload length against the remaining bytes, and the
 * payload checksum; EndSection verifies the section was consumed
 * exactly. Every primitive read throws CheckpointError on underrun.
 */
class CheckpointReader {
  public:
    explicit CheckpointReader(std::span<const std::uint8_t> image);

    void BeginSection(SectionTag tag);
    void EndSection();

    std::uint64_t U64();
    double F64() { return std::bit_cast<double>(U64()); }
    bool Bool();
    /** An element count, checked against the open section's remaining
     * payload: every element stores at least one 8-byte value, so a
     * larger count is a malformed image, never an allocation size. */
    std::uint64_t Count();
    std::vector<std::uint64_t> VecU64();

    /** True once every byte of the image has been consumed. */
    bool AtEnd() const;

  private:
    std::uint64_t RawU64();

    std::span<const std::uint8_t> bytes_;
    std::size_t at_ = 0;
    std::size_t section_end_ = 0;
    SectionTag section_tag_ = SectionTag::kOperationLog;  // open section
    bool in_section_ = false;
};

/** The checksum the section framing uses: a HashCombine fold over the
 * payload interpreted as 8-byte words plus a tail fold, seeded with
 * the payload length so truncation-to-empty cannot collide. */
std::uint64_t ChecksumBytes(std::span<const std::uint8_t> payload);

}  // namespace apo::fault

#endif  // APOPHENIA_FAULT_CHECKPOINT_H
