// Pluggable per-block compression for the SSTable block stack. A codec is
// identified by the single byte stored in each block trailer
// (sstable/format.h); codec 0 means the payload is stored raw — the
// kNoCompression setting and the incompressible-data fallback.
//
// The built-in codec is a self-contained LZ4-block-style byte LZ
// (token/literals/offset sequences, greedy hash-table match finder): fast
// enough to sit on the flush/compaction path and dependency-free, which
// matters because blocks are decompressed on the LTC read path for every
// hot-tier cache miss.
#ifndef NOVA_UTIL_COMPRESSOR_H_
#define NOVA_UTIL_COMPRESSOR_H_

#include <cstdint>
#include <string>

#include "util/slice.h"
#include "util/status.h"

namespace nova {

/// Codec ids as stored in the block trailer's codec byte.
enum CompressionCodec : uint8_t {
  kNoCompression = 0,
  kNovaLzCompression = 1,
};

class Compressor {
 public:
  virtual ~Compressor() = default;

  /// The codec byte written to block trailers.
  virtual uint8_t id() const = 0;
  virtual const char* name() const = 0;

  /// Append the compressed form of input to *out. Returns false when the
  /// input does not shrink (incompressible data) — the caller then stores
  /// the payload raw under codec 0, so decompression is never on the
  /// critical path for data that would not have paid for it.
  virtual bool Compress(const Slice& input, std::string* out) const = 0;

  /// Decompress input into *out, which must come out to exactly
  /// uncompressed_len bytes. Every read is bounds-checked against the
  /// input and every write against uncompressed_len, so a corrupted or
  /// truncated payload yields Status::Corruption, never an OOB access.
  virtual Status Uncompress(const Slice& input, size_t uncompressed_len,
                            std::string* out) const = 0;
};

/// The registered codec for a trailer byte; nullptr for kNoCompression
/// (raw payloads need no codec) and for unknown ids (callers surface
/// Status::Corruption).
const Compressor* GetCompressor(uint8_t codec_id);

}  // namespace nova

#endif  // NOVA_UTIL_COMPRESSOR_H_
