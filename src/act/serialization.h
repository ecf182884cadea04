// Binary persistence for PolygonIndex.
//
// The paper's deployment model builds the index once over mostly static
// polygons and serves it for a long time; persisting the build avoids
// recomputing coverings on restart. The format stores the inputs plus the
// (possibly refined and trained) super covering; the derived structures
// (classifier, lookup table, trie) are rebuilt at load, which takes
// milliseconds-to-seconds and keeps the format independent of in-memory
// layout choices like the trie fanout.
//
// Format v2 (little-endian): magic "ACTJ", u32 version, then three
// CRC-framed sections (options, polygons, covering). Every section is
// [u32 tag | u64 payload_len | payload | u32 crc32c(payload)], so
// truncation and bit-rot are detected at load time with a typed LoadError
// instead of surfacing as wrong join results later. The same section
// framing and the index-body codec are reused by the snapshot store
// (src/store/) for its snapshot container and manifest formats.

#ifndef ACTJOIN_ACT_SERIALIZATION_H_
#define ACTJOIN_ACT_SERIALIZATION_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "act/pipeline.h"
#include "util/byte_io.h"

namespace actjoin::act {

/// Why a load failed. Operators need to tell corruption (checksum, data)
/// from absence (missing) and from version skew — the store and the server
/// log these verbatim. kTruncated covers any stream that ends before the
/// format says it should; kBadChecksum means a CRC-covered section's bytes
/// changed after they were written; kBadData means the bytes are intact
/// (CRC passed) but semantically invalid (the writer was broken, or the
/// file was crafted).
enum class LoadError : uint8_t {
  kNone = 0,
  kMissing,       // file does not exist / cannot be opened
  kTruncated,     // ends mid-header or mid-section
  kBadMagic,      // not an actjoin file at all
  kBadVersion,    // an actjoin file, but not a version this build reads
  kBadChecksum,   // section CRC32C mismatch: bit-rot or torn write
  kBadData,       // CRC-valid bytes that fail semantic validation
};

const char* ToString(LoadError error);

// --- CRC-framed sections ---------------------------------------------------
// [u32 tag][u64 payload_len][payload bytes][u32 crc32c(payload)]
// Shared by this file and the snapshot store's container/manifest formats.

inline constexpr size_t kSectionOverheadBytes = 4 + 8 + 4;

/// Starts a section: writes tag and a zero length placeholder, returns the
/// offset to pass to EndSection. Payload bytes go through `w` in between.
size_t BeginSection(util::ByteWriter* w, uint32_t tag);

/// Patches the section length and appends the CRC32C of the payload bytes.
void EndSection(util::ByteWriter* w, size_t begin);

/// Reads the section at `*offset`, verifies tag and checksum, and points
/// *payload into `bytes`. Advances *offset past the section. On failure
/// fills *error (kTruncated / kBadData for a tag mismatch / kBadChecksum)
/// and leaves *offset unspecified.
bool ReadSection(std::span<const uint8_t> bytes, size_t* offset,
                 uint32_t expect_tag, std::span<const uint8_t>* payload,
                 LoadError* error);

// --- Index body codec ------------------------------------------------------

/// Appends the three v2 sections (options, polygons, covering) for `index`
/// — everything except the file magic/version. The seam the snapshot store
/// uses to embed a dataset's index inside its own container format.
void AppendIndexBody(const PolygonIndex& index, util::ByteWriter* w);

/// Parses a body written by AppendIndexBody starting at `*offset`;
/// advances *offset past it. nullopt + *error on failure.
std::optional<PolygonIndex> ParseIndexBody(std::span<const uint8_t> bytes,
                                           size_t* offset, LoadError* error);

// --- Polygon blob codec ----------------------------------------------------
// The v2 polygons-section payload, exposed standalone: u64 count, then per
// polygon a u32 ring count and per ring a u32 vertex count followed by f64
// x/y pairs. Reused by the wire protocol's ADD_POLYGONS payload and the
// snapshot store's delta records, so a polygon batch is encoded identically
// whether it travels over the wire, sits in a delta file, or is embedded in
// a full snapshot.

/// Appends the raw polygon blob (no section framing) for `polygons`.
void AppendPolygonsBlob(const std::vector<geom::Polygon>& polygons,
                        util::ByteWriter* w);

/// Parses a blob written by AppendPolygonsBlob. The payload must be exactly
/// one blob (trailing bytes fail as kBadData); vertices are validated
/// (finite, >= 3 per ring) and forged counts are bounded by the payload
/// size before any allocation.
bool ParsePolygonsBlob(std::span<const uint8_t> payload,
                       std::vector<geom::Polygon>* polygons,
                       LoadError* error);

// --- Whole-file API --------------------------------------------------------

/// Writes the index to `path` (format v2). Returns false on I/O failure.
bool SaveIndex(const PolygonIndex& index, const std::string& path);

/// Reads an index written by SaveIndex. Returns nullopt if the file is
/// missing, truncated, corrupt, or not a v2 index file; `*error` (when
/// non-null) says which, so callers can log corruption as corruption and
/// absence as absence.
std::optional<PolygonIndex> LoadIndex(const std::string& path,
                                      LoadError* error = nullptr);

/// Reads a whole file into `*out`. False + *error (kMissing / kTruncated
/// on a read that dies mid-file). Shared with the snapshot store.
bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* out,
                   LoadError* error);

}  // namespace actjoin::act

#endif  // ACTJOIN_ACT_SERIALIZATION_H_
