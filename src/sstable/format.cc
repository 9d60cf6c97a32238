#include "sstable/format.h"

#include "util/coding.h"
#include "util/crc32c.h"

namespace nova {

void BlockHandle::EncodeTo(std::string* dst) const {
  PutVarint64(dst, offset);
  PutVarint64(dst, size);
}

Status BlockHandle::DecodeFrom(Slice* input) {
  if (GetVarint64(input, &offset) && GetVarint64(input, &size)) {
    return Status::OK();
  }
  return Status::Corruption("bad block handle");
}

void EncodeBlockTo(const Slice& raw, const Compressor* compressor,
                   std::string* dst) {
  const size_t start = dst->size();
  uint8_t codec = kNoCompression;
  if (compressor != nullptr && compressor->Compress(raw, dst)) {
    codec = compressor->id();
  } else {
    dst->append(raw.data(), raw.size());
  }
  dst->push_back(static_cast<char>(codec));
  PutFixed32(dst, static_cast<uint32_t>(raw.size()));
  // The crc spans payload + codec + uncompressed_len, so a flipped codec
  // byte or length is caught by the same check as a payload flip.
  uint32_t crc = crc32c::Value(dst->data() + start, dst->size() - start);
  PutFixed32(dst, crc32c::Mask(crc));
}

Status DecodeBlock(const Slice& stored, std::string* raw) {
  if (stored.size() < kBlockTrailerSize) {
    return Status::Corruption("stored block shorter than its trailer");
  }
  const size_t payload_len = stored.size() - kBlockTrailerSize;
  const char* trailer = stored.data() + payload_len;
  // Checksum first: nothing downstream (codec dispatch, decompression)
  // ever sees bytes that failed the crc.
  uint32_t expected = crc32c::Unmask(DecodeFixed32(trailer + 5));
  if (crc32c::Value(stored.data(), payload_len + 5) != expected) {
    return Status::Corruption("block checksum mismatch");
  }
  uint8_t codec = static_cast<uint8_t>(trailer[0]);
  uint32_t uncompressed_len = DecodeFixed32(trailer + 1);
  Slice payload(stored.data(), payload_len);
  if (codec == kNoCompression) {
    if (payload_len != uncompressed_len) {
      return Status::Corruption("raw block length mismatch");
    }
    raw->assign(payload.data(), payload.size());
    return Status::OK();
  }
  const Compressor* compressor = GetCompressor(codec);
  if (compressor == nullptr) {
    return Status::Corruption("unknown block codec");
  }
  return compressor->Uncompress(payload, uncompressed_len, raw);
}

bool SSTableMetadata::Locate(uint64_t global_offset, int* fragment,
                             uint64_t* local_offset) const {
  uint64_t base = 0;
  for (size_t i = 0; i < fragment_sizes.size(); i++) {
    if (global_offset < base + fragment_sizes[i]) {
      *fragment = static_cast<int>(i);
      *local_offset = global_offset - base;
      return true;
    }
    base += fragment_sizes[i];
  }
  return false;
}

void SSTableMetadata::EncodeTo(std::string* dst) const {
  std::string body;
  PutVarint64(&body, file_number);
  PutVarint64(&body, data_size);
  PutVarint32(&body, static_cast<uint32_t>(fragment_sizes.size()));
  for (uint64_t s : fragment_sizes) {
    PutVarint64(&body, s);
  }
  PutLengthPrefixedSlice(&body, index_contents);
  PutLengthPrefixedSlice(&body, bloom);
  PutLengthPrefixedSlice(&body, smallest.Encode());
  PutLengthPrefixedSlice(&body, largest.Encode());
  PutVarint64(&body, num_entries);
  PutVarint32(&body, kBlockFormat);
  PutFixed32(&body, crc32c::Mask(crc32c::Value(body.data(), body.size())));
  dst->append(body);
}

Status SSTableMetadata::DecodeFrom(Slice input) {
  if (input.size() < 4) {
    return Status::Corruption("sstable metadata too short");
  }
  Slice body(input.data(), input.size() - 4);
  uint32_t expected =
      crc32c::Unmask(DecodeFixed32(input.data() + input.size() - 4));
  if (crc32c::Value(body.data(), body.size()) != expected) {
    return Status::Corruption("sstable metadata checksum mismatch");
  }
  uint32_t nfrags;
  Slice idx, blm, small, large;
  if (!GetVarint64(&body, &file_number) || !GetVarint64(&body, &data_size) ||
      !GetVarint32(&body, &nfrags)) {
    return Status::Corruption("bad sstable metadata header");
  }
  fragment_sizes.clear();
  fragment_sizes.reserve(nfrags);
  for (uint32_t i = 0; i < nfrags; i++) {
    uint64_t s;
    if (!GetVarint64(&body, &s)) {
      return Status::Corruption("bad fragment sizes");
    }
    fragment_sizes.push_back(s);
  }
  if (!GetLengthPrefixedSlice(&body, &idx) ||
      !GetLengthPrefixedSlice(&body, &blm) ||
      !GetLengthPrefixedSlice(&body, &small) ||
      !GetLengthPrefixedSlice(&body, &large) ||
      !GetVarint64(&body, &num_entries)) {
    return Status::Corruption("bad sstable metadata body");
  }
  uint32_t block_format = 0;
  if (!GetVarint32(&body, &block_format) || block_format != kBlockFormat) {
    return Status::Corruption("bad sstable metadata block format");
  }
  index_contents = idx.ToString();
  bloom = blm.ToString();
  smallest.DecodeFrom(small);
  largest.DecodeFrom(large);
  return Status::OK();
}

}  // namespace nova
