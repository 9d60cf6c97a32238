#include "sstable/sstable_builder.h"

#include <cassert>

#include "sstable/bloom.h"

namespace nova {

SSTableBuilder::SSTableBuilder(const SSTableBuilderOptions& options)
    : options_(options) {}

void SSTableBuilder::Add(const Slice& internal_key, const Slice& value) {
  assert(num_entries_ == 0 || icmp_.Compare(internal_key, last_key_) > 0);
  if (num_entries_ == 0) {
    first_key_.assign(internal_key.data(), internal_key.size());
  }
  Slice user_key = ExtractUserKey(internal_key);
  if (user_keys_.empty() || Slice(user_keys_.back()) != user_key) {
    user_keys_.push_back(user_key.ToString());
  }
  data_block_.Add(internal_key, value);
  last_key_.assign(internal_key.data(), internal_key.size());
  num_entries_++;
  if (data_block_.CurrentSizeEstimate() >= options_.block_size) {
    FlushBlock();
  }
}

uint64_t SSTableBuilder::EstimatedSize() const {
  return data_.size() + data_block_.CurrentSizeEstimate();
}

void SSTableBuilder::FlushBlock() {
  if (data_block_.empty()) {
    return;
  }
  Slice contents = data_block_.Finish();
  BlockHandle handle;
  handle.offset = data_.size();
  // The handle covers the *stored* block — payload (compressed when that
  // shrinks it) plus trailer — so fragment partitioning, Locate, and
  // iterator runs of adjacent blocks keep working on stored offsets
  // unchanged.
  EncodeBlockTo(contents, options_.compressor, &data_);
  handle.size = data_.size() - handle.offset;
  raw_bytes_ += contents.size() + kBlockTrailerSize;
  block_offsets_.push_back(handle.offset);
  index_keys_.push_back(last_key_);
  index_handles_.push_back(handle);
  data_block_.Reset();
}

SSTableBuilder::Result SSTableBuilder::Finish(uint64_t file_number,
                                              int num_fragments) {
  FlushBlock();

  Result result;
  result.meta.file_number = file_number;
  result.meta.data_size = data_.size();
  result.meta.num_entries = num_entries_;
  result.raw_bytes = raw_bytes_;
  if (!first_key_.empty()) {
    result.meta.smallest.DecodeFrom(first_key_);
    result.meta.largest.DecodeFrom(last_key_);
  }

  // Index block: last key of each data block -> handle.
  BlockBuilder index_block;
  for (size_t i = 0; i < index_keys_.size(); i++) {
    std::string handle_enc;
    index_handles_[i].EncodeTo(&handle_enc);
    index_block.Add(index_keys_[i], handle_enc);
  }
  Slice index_contents = index_block.Finish();
  result.meta.index_contents.assign(index_contents.data(),
                                    index_contents.size());

  // Bloom filter over distinct user keys.
  std::vector<Slice> key_slices;
  key_slices.reserve(user_keys_.size());
  for (const auto& k : user_keys_) {
    key_slices.emplace_back(k);
  }
  result.meta.bloom =
      BloomFilter::Create(key_slices, options_.bloom_bits_per_key);

  // Partition data blocks into fragments at block boundaries, targeting
  // equal fragment sizes.
  int nblocks = static_cast<int>(block_offsets_.size());
  int frags = num_fragments;
  if (frags < 1) frags = 1;
  if (frags > nblocks && nblocks > 0) frags = nblocks;
  if (nblocks == 0) frags = 1;

  result.meta.fragment_sizes.assign(frags, 0);
  if (nblocks > 0) {
    uint64_t target = (data_.size() + frags - 1) / frags;
    int frag = 0;
    for (int b = 0; b < nblocks; b++) {
      uint64_t block_size = (b + 1 < nblocks)
                                ? block_offsets_[b + 1] - block_offsets_[b]
                                : data_.size() - block_offsets_[b];
      // Move to the next fragment if this one met its target and there are
      // fragments left to fill.
      if (frag + 1 < frags && result.meta.fragment_sizes[frag] >= target) {
        frag++;
      }
      result.meta.fragment_sizes[frag] += block_size;
    }
    while (!result.meta.fragment_sizes.empty() &&
           result.meta.fragment_sizes.back() == 0) {
      result.meta.fragment_sizes.pop_back();
    }
  }

  result.data = std::move(data_);
  return result;
}

}  // namespace nova
