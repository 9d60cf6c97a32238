// On-"disk" SSTable layout. A Nova-LSM SSTable is not one file: its data
// blocks are partitioned into ρ fragments, each stored as a StoC file on a
// (usually) different StoC, and a small metadata block (index + bloom +
// fragment map) that is replicated (paper Sections 4.4, 3.1).
//
//   fragment 0: [stored block][stored block]...
//   fragment 1: [stored block]...
//   ...
//   metadata  : fragment sizes | index block | bloom | smallest/largest |
//               num_entries | block format (kBlockFormat) | crc32c
//
// The index block maps last-key-in-block -> BlockHandle(global offset,
// size); SSTableMetadata::Locate translates a global offset into
// (fragment, local offset), which is this repo's equivalent of the paper's
// "convert index block to StoC block handles".
//
// A *stored* block is the block contents — compressed when the codec
// saves space — followed by a 9-byte trailer:
//
//   [payload][codec:1][uncompressed_len:4 LE][crc32c:4 LE]
//
// The crc covers payload + codec + uncompressed_len and is verified
// BEFORE any decompression, so a corrupted payload is reported as
// Status::Corruption instead of being fed to the decoder. Codec 0 means
// the payload is stored raw. See docs/block_format.md.
#ifndef NOVA_SSTABLE_FORMAT_H_
#define NOVA_SSTABLE_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mem/dbformat.h"
#include "util/compressor.h"
#include "util/slice.h"
#include "util/status.h"

namespace nova {

/// codec byte + fixed32 uncompressed length + fixed32 crc32c.
constexpr size_t kBlockTrailerSize = 9;

/// The one data-block layout (every block carries the trailer above).
/// Metadata records it, and decoding rejects any other value.
constexpr uint32_t kBlockFormat = 1;

/// Append `raw` block contents to *dst as a stored block: compressed under
/// `compressor` when that shrinks it (codec 0 / raw otherwise), plus the
/// trailer. Null compressor always stores raw (still checksummed).
void EncodeBlockTo(const Slice& raw, const Compressor* compressor,
                   std::string* dst);

/// Verify a stored block's trailer (crc first, then codec) and place the
/// uncompressed contents in *raw. Returns Corruption — never crashes — on
/// a checksum mismatch, an unknown codec byte, or a truncated payload.
Status DecodeBlock(const Slice& stored, std::string* raw);

struct BlockHandle {
  uint64_t offset = 0;  // global offset within the SSTable's data stream
  uint64_t size = 0;

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);
};

struct SSTableMetadata {
  uint64_t file_number = 0;
  uint64_t data_size = 0;
  std::vector<uint64_t> fragment_sizes;
  std::string index_contents;
  std::string bloom;
  InternalKey smallest;
  InternalKey largest;
  uint64_t num_entries = 0;

  int num_fragments() const { return static_cast<int>(fragment_sizes.size()); }

  /// Translate a global data offset to a fragment and offset within it.
  /// Returns false if the offset is out of range.
  bool Locate(uint64_t global_offset, int* fragment,
              uint64_t* local_offset) const;

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice input);
};

/// Pulls a byte range of one fragment; implemented over the StoC client by
/// the LTC and over a local device by the monolithic baseline.
///
/// Replica-selection contract: when the fragment is stored on several
/// replicas, the fetcher — not the table reader — decides which replica
/// serves a given fetch. The StoC-backed implementation fans a Fetch out
/// to the d least-loaded replicas (power-of-d over queue depth and EWMA
/// read latency) and returns the first success, hedging stragglers after
/// a p99-derived delay, and rebuilds a lost fragment from parity. Readers
/// therefore always ask for (fragment, offset, size) and never name a
/// replica. Every data read goes through Fetch, a single block or an
/// iterator's run of adjacent blocks alike.
class BlockFetcher {
 public:
  virtual ~BlockFetcher() = default;
  virtual Status Fetch(int fragment, uint64_t offset, uint64_t size,
                       std::string* out) = 0;
};

}  // namespace nova

#endif  // NOVA_SSTABLE_FORMAT_H_
