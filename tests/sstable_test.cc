#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "mem/dbformat.h"
#include "sstable/block.h"
#include "sstable/bloom.h"
#include "sstable/format.h"
#include "sstable/merging_iterator.h"
#include "sstable/sstable_builder.h"
#include "sstable/sstable_reader.h"
#include "util/coding.h"
#include "util/compressor.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace nova {
namespace {

std::string IKey(const std::string& ukey, SequenceNumber seq,
                 ValueType t = kTypeValue) {
  std::string s;
  AppendInternalKey(&s, ParsedInternalKey(ukey, seq, t));
  return s;
}

std::string KeyNum(int i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key%08d", i);
  return buf;
}

TEST(BlockTest, BuildAndIterate) {
  BlockBuilder builder;
  InternalKeyComparator icmp;
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 100; i++) {
    entries.emplace_back(IKey(KeyNum(i), 1), "value" + std::to_string(i));
  }
  for (auto& [k, v] : entries) {
    builder.Add(k, v);
  }
  Block block(builder.Finish().ToString());
  std::unique_ptr<Iterator> iter(block.NewIterator(&icmp));

  iter->SeekToFirst();
  for (auto& [k, v] : entries) {
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(iter->key().ToString(), k);
    EXPECT_EQ(iter->value().ToString(), v);
    iter->Next();
  }
  EXPECT_FALSE(iter->Valid());

  // Seek to an existing key and to a gap.
  iter->Seek(IKey(KeyNum(42), 1));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->value().ToString(), "value42");
  iter->Seek(IKey(KeyNum(42) + "x", kMaxSequenceNumber));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->value().ToString(), "value43");

  // Backward iteration.
  iter->SeekToLast();
  for (int i = 99; i >= 0; i--) {
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(iter->value().ToString(), "value" + std::to_string(i));
    iter->Prev();
  }
  EXPECT_FALSE(iter->Valid());
}

TEST(BloomTest, NoFalseNegatives) {
  std::vector<std::string> keys;
  std::vector<Slice> slices;
  for (int i = 0; i < 1000; i++) {
    keys.push_back(KeyNum(i));
  }
  for (auto& k : keys) {
    slices.emplace_back(k);
  }
  std::string filter = BloomFilter::Create(slices, 10);
  for (auto& k : keys) {
    EXPECT_TRUE(BloomFilter::KeyMayMatch(k, filter)) << k;
  }
}

TEST(BloomTest, LowFalsePositiveRate) {
  std::vector<std::string> keys;
  std::vector<Slice> slices;
  for (int i = 0; i < 1000; i++) {
    keys.push_back(KeyNum(i));
  }
  for (auto& k : keys) {
    slices.emplace_back(k);
  }
  std::string filter = BloomFilter::Create(slices, 10);
  int false_positives = 0;
  for (int i = 1000; i < 11000; i++) {
    if (BloomFilter::KeyMayMatch(KeyNum(i), filter)) {
      false_positives++;
    }
  }
  // 10 bits/key ≈ 1% FP; allow generous slack.
  EXPECT_LT(false_positives, 400);
}

TEST(FormatTest, MetadataRoundTrip) {
  SSTableMetadata meta;
  meta.file_number = 77;
  meta.data_size = 1000;
  meta.fragment_sizes = {400, 300, 300};
  meta.index_contents = "fake-index";
  meta.bloom = "fake-bloom";
  meta.smallest.DecodeFrom(IKey("aaa", 5));
  meta.largest.DecodeFrom(IKey("zzz", 9));
  meta.num_entries = 123;

  std::string encoded;
  meta.EncodeTo(&encoded);
  SSTableMetadata decoded;
  ASSERT_TRUE(decoded.DecodeFrom(encoded).ok());
  EXPECT_EQ(decoded.file_number, 77u);
  EXPECT_EQ(decoded.data_size, 1000u);
  EXPECT_EQ(decoded.fragment_sizes, meta.fragment_sizes);
  EXPECT_EQ(decoded.index_contents, "fake-index");
  EXPECT_EQ(decoded.bloom, "fake-bloom");
  EXPECT_EQ(decoded.smallest.user_key().ToString(), "aaa");
  EXPECT_EQ(decoded.largest.user_key().ToString(), "zzz");
  EXPECT_EQ(decoded.num_entries, 123u);
}

TEST(FormatTest, MetadataChecksumDetectsCorruption) {
  SSTableMetadata meta;
  meta.file_number = 1;
  std::string encoded;
  meta.EncodeTo(&encoded);
  encoded[encoded.size() / 2] ^= 0x40;
  SSTableMetadata decoded;
  EXPECT_TRUE(decoded.DecodeFrom(encoded).IsCorruption());
}

TEST(FormatTest, LocateMapsOffsets) {
  SSTableMetadata meta;
  meta.fragment_sizes = {100, 200, 50};
  int frag;
  uint64_t local;
  ASSERT_TRUE(meta.Locate(0, &frag, &local));
  EXPECT_EQ(frag, 0);
  EXPECT_EQ(local, 0u);
  ASSERT_TRUE(meta.Locate(99, &frag, &local));
  EXPECT_EQ(frag, 0);
  ASSERT_TRUE(meta.Locate(100, &frag, &local));
  EXPECT_EQ(frag, 1);
  EXPECT_EQ(local, 0u);
  ASSERT_TRUE(meta.Locate(349, &frag, &local));
  EXPECT_EQ(frag, 2);
  EXPECT_EQ(local, 49u);
  EXPECT_FALSE(meta.Locate(350, &frag, &local));
}

/// Serves fragment reads from an in-memory copy of the SSTable data,
/// counting fetches (stands in for the StoC client in these tests).
class MemoryFetcher : public BlockFetcher {
 public:
  MemoryFetcher(const std::string& data,
                const std::vector<uint64_t>& fragment_sizes) {
    uint64_t off = 0;
    for (uint64_t size : fragment_sizes) {
      fragments_.push_back(data.substr(off, size));
      off += size;
    }
  }

  Status Fetch(int fragment, uint64_t offset, uint64_t size,
               std::string* out) override {
    fetches_++;
    if (fragment < 0 || fragment >= static_cast<int>(fragments_.size())) {
      return Status::InvalidArgument("bad fragment");
    }
    const std::string& f = fragments_[fragment];
    if (offset + size > f.size()) {
      return Status::InvalidArgument("bad range");
    }
    out->assign(f.data() + offset, size);
    return Status::OK();
  }

  int fetches() const { return fetches_; }

 private:
  std::vector<std::string> fragments_;
  int fetches_ = 0;
};

class SSTableRoundTrip
    : public testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SSTableRoundTrip, BuildScatterRead) {
  auto [num_keys, block_size, fragments] = GetParam();
  SSTableBuilderOptions opt;
  opt.block_size = block_size;
  SSTableBuilder builder(opt);
  std::map<std::string, std::string> model;
  for (int i = 0; i < num_keys; i++) {
    std::string k = KeyNum(i);
    std::string v = "value-" + std::to_string(i * 31 % 997);
    builder.Add(IKey(k, i + 1), v);
    model[k] = v;
  }
  auto result = builder.Finish(9, fragments);
  EXPECT_EQ(result.meta.num_entries, static_cast<uint64_t>(num_keys));
  EXPECT_GE(result.meta.num_fragments(), 1);
  EXPECT_LE(result.meta.num_fragments(), fragments);
  uint64_t total = 0;
  for (uint64_t s : result.meta.fragment_sizes) {
    total += s;
  }
  EXPECT_EQ(total, result.data.size());

  MemoryFetcher fetcher(result.data, result.meta.fragment_sizes);
  SSTableReader reader(result.meta, &fetcher);

  // Point lookups for every key.
  for (auto& [k, v] : model) {
    LookupKey lkey(k, kMaxSequenceNumber);
    std::string value;
    Status s;
    ASSERT_TRUE(reader.Get(lkey, &value, &s)) << k;
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(value, v);
  }
  // Missing keys are not found (bloom may or may not short-circuit).
  LookupKey missing("nonexistent-key", kMaxSequenceNumber);
  std::string value;
  Status s;
  EXPECT_FALSE(reader.Get(missing, &value, &s));

  // Full scan equals the model.
  std::unique_ptr<Iterator> iter(reader.NewIterator());
  iter->SeekToFirst();
  auto it = model.begin();
  while (iter->Valid()) {
    ASSERT_NE(it, model.end());
    EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), it->first);
    EXPECT_EQ(iter->value().ToString(), it->second);
    ++it;
    iter->Next();
  }
  EXPECT_EQ(it, model.end());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SSTableRoundTrip,
    testing::Values(std::make_tuple(10, 4096, 1),
                    std::make_tuple(500, 512, 1),
                    std::make_tuple(500, 512, 3),
                    std::make_tuple(500, 512, 10),
                    std::make_tuple(2000, 4096, 4),
                    std::make_tuple(1, 4096, 3),
                    std::make_tuple(3000, 256, 64)));

TEST(SSTableReaderTest, DeletionVisible) {
  SSTableBuilder builder;
  builder.Add(IKey("a", 10, kTypeDeletion), "");
  builder.Add(IKey("b", 5, kTypeValue), "bv");
  auto result = builder.Finish(1, 1);
  MemoryFetcher fetcher(result.data, result.meta.fragment_sizes);
  SSTableReader reader(result.meta, &fetcher);

  LookupKey lkey("a", kMaxSequenceNumber);
  std::string value;
  Status s;
  ASSERT_TRUE(reader.Get(lkey, &value, &s));
  EXPECT_TRUE(s.IsNotFound());
}

TEST(SSTableReaderTest, SnapshotRespected) {
  SSTableBuilder builder;
  builder.Add(IKey("a", 30, kTypeValue), "v30");
  builder.Add(IKey("a", 10, kTypeValue), "v10");
  auto result = builder.Finish(1, 1);
  MemoryFetcher fetcher(result.data, result.meta.fragment_sizes);
  SSTableReader reader(result.meta, &fetcher);

  std::string value;
  Status s;
  LookupKey at20("a", 20);
  ASSERT_TRUE(reader.Get(at20, &value, &s));
  EXPECT_EQ(value, "v10");
  LookupKey at40("a", 40);
  ASSERT_TRUE(reader.Get(at40, &value, &s));
  EXPECT_EQ(value, "v30");
  LookupKey at5("a", 5);
  EXPECT_FALSE(reader.Get(at5, &value, &s));
}

TEST(SSTableReaderTest, BloomSkipsFetches) {
  SSTableBuilder builder;
  for (int i = 0; i < 100; i++) {
    builder.Add(IKey(KeyNum(i), 1), "v");
  }
  auto result = builder.Finish(1, 1);
  MemoryFetcher fetcher(result.data, result.meta.fragment_sizes);
  SSTableReader reader(result.meta, &fetcher);
  int misses_fetched = 0;
  for (int i = 1000; i < 1200; i++) {
    int before = fetcher.fetches();
    std::string value;
    Status s;
    reader.Get(LookupKey(KeyNum(i), kMaxSequenceNumber), &value, &s);
    misses_fetched += fetcher.fetches() - before;
  }
  // Nearly all misses must be answered by the bloom filter alone.
  EXPECT_LT(misses_fetched, 20);
}

// ---------------------------------------------------------------------------
// Compression + stored-block corruption safety.
// ---------------------------------------------------------------------------

TEST(CompressorTest, RoundTripCompressible) {
  const Compressor* c = GetCompressor(kNovaLzCompression);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->id(), kNovaLzCompression);

  // Repetitive payloads (the workloads' 'vvvv...' values) must shrink and
  // round-trip byte-identically.
  std::string input;
  for (int i = 0; i < 200; i++) {
    input += "key" + std::to_string(i % 17) + std::string(40, 'v');
  }
  std::string compressed;
  ASSERT_TRUE(c->Compress(input, &compressed));
  EXPECT_LT(compressed.size(), input.size());
  std::string output;
  ASSERT_TRUE(c->Uncompress(compressed, input.size(), &output).ok());
  EXPECT_EQ(output, input);
}

TEST(CompressorTest, RoundTripSweep) {
  const Compressor* c = GetCompressor(kNovaLzCompression);
  ASSERT_NE(c, nullptr);
  Random rng(301);
  for (int trial = 0; trial < 200; trial++) {
    // Mixed-entropy inputs: runs, small alphabets, varying lengths.
    std::string input;
    int len = rng.Uniform(3000);
    int alphabet = 1 + rng.Uniform(30);
    while (static_cast<int>(input.size()) < len) {
      char ch = static_cast<char>('a' + rng.Uniform(alphabet));
      input.append(1 + rng.Uniform(12), ch);
    }
    input.resize(len);
    std::string compressed;
    if (!c->Compress(input, &compressed)) {
      continue;  // incompressible: caller stores raw
    }
    std::string output;
    ASSERT_TRUE(c->Uncompress(compressed, input.size(), &output).ok())
        << "trial " << trial;
    ASSERT_EQ(output, input) << "trial " << trial;
  }
}

TEST(CompressorTest, IncompressibleFallsBackToRaw) {
  const Compressor* c = GetCompressor(kNovaLzCompression);
  ASSERT_NE(c, nullptr);
  // High-entropy bytes do not shrink: Compress refuses...
  Random rng(77);
  std::string input;
  for (int i = 0; i < 4096; i++) {
    input.push_back(static_cast<char>(rng.Next()));
  }
  std::string compressed;
  EXPECT_FALSE(c->Compress(input, &compressed));

  // ...and EncodeBlockTo stores the payload raw (codec 0), still decodable.
  std::string stored;
  EncodeBlockTo(input, c, &stored);
  ASSERT_EQ(stored.size(), input.size() + kBlockTrailerSize);
  EXPECT_EQ(static_cast<uint8_t>(stored[input.size()]), kNoCompression);
  std::string raw;
  ASSERT_TRUE(DecodeBlock(stored, &raw).ok());
  EXPECT_EQ(raw, input);
}

TEST(FormatTest, StoredBlockRoundTrip) {
  std::string input(2000, 'x');
  for (const Compressor* c :
       {GetCompressor(kNovaLzCompression), (const Compressor*)nullptr}) {
    std::string stored;
    EncodeBlockTo(input, c, &stored);
    std::string raw;
    ASSERT_TRUE(DecodeBlock(stored, &raw).ok());
    EXPECT_EQ(raw, input);
  }
}

TEST(FormatTest, BitFlipIsCorruptionNotCrash) {
  std::string input;
  for (int i = 0; i < 100; i++) {
    input += KeyNum(i) + std::string(20, 'v');
  }
  std::string stored;
  EncodeBlockTo(input, GetCompressor(kNovaLzCompression), &stored);
  ASSERT_LT(stored.size(), input.size());  // actually compressed

  // Flip every byte (payload, codec, length, crc): the crc covers all of
  // them, so each flip must surface as a non-ok Status — never reach the
  // decoder, never crash, never return wrong bytes.
  for (size_t i = 0; i < stored.size(); i++) {
    std::string corrupt = stored;
    corrupt[i] ^= 0x40;
    std::string raw;
    Status s = DecodeBlock(corrupt, &raw);
    EXPECT_FALSE(s.ok()) << "byte " << i;
  }
}

TEST(FormatTest, UnknownCodecByteIsCorruption) {
  std::string input(500, 'y');
  std::string stored;
  EncodeBlockTo(input, nullptr, &stored);
  // Forge a trailer naming a codec this build does not know, with a valid
  // crc, so the check past the checksum is exercised.
  size_t codec_pos = stored.size() - kBlockTrailerSize;
  stored[codec_pos] = static_cast<char>(0x7f);
  uint32_t crc = crc32c::Value(stored.data(), stored.size() - 4);
  stored.resize(stored.size() - 4);
  PutFixed32(&stored, crc32c::Mask(crc));
  std::string raw;
  Status s = DecodeBlock(stored, &raw);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("unknown block codec"), std::string::npos);
}

TEST(FormatTest, TruncatedStoredBlockIsCorruption) {
  std::string input(1000, 'z');
  std::string stored;
  EncodeBlockTo(input, GetCompressor(kNovaLzCompression), &stored);
  // Any prefix — including ones shorter than the trailer — must fail
  // cleanly.
  for (size_t len = 0; len < stored.size(); len++) {
    std::string raw;
    Status s = DecodeBlock(Slice(stored.data(), len), &raw);
    EXPECT_FALSE(s.ok()) << "length " << len;
  }
}

TEST(FormatTest, MetadataBlockFormatRoundTripAndLegacyDefault) {
  SSTableMetadata meta;
  meta.file_number = 3;
  meta.data_size = 10;
  meta.fragment_sizes = {10};
  meta.smallest.DecodeFrom(IKey("a", 1));
  meta.largest.DecodeFrom(IKey("b", 2));
  meta.num_entries = 2;
  std::string encoded;
  meta.EncodeTo(&encoded);
  SSTableMetadata decoded;
  ASSERT_TRUE(decoded.DecodeFrom(encoded).ok());
  EXPECT_EQ(decoded.num_entries, 2u);

  // Metadata whose block format field is missing (the body ends right
  // after num_entries) or is not kBlockFormat describes a layout no
  // reader understands: Corruption, not a misread table.
  std::string missing;
  PutVarint64(&missing, meta.file_number);
  PutVarint64(&missing, meta.data_size);
  PutVarint32(&missing, 1);
  PutVarint64(&missing, 10);
  PutLengthPrefixedSlice(&missing, meta.index_contents);
  PutLengthPrefixedSlice(&missing, meta.bloom);
  PutLengthPrefixedSlice(&missing, meta.smallest.Encode());
  PutLengthPrefixedSlice(&missing, meta.largest.Encode());
  PutVarint64(&missing, meta.num_entries);
  std::string zero = missing;
  PutVarint32(&zero, 0);
  std::string current = missing;
  PutVarint32(&current, kBlockFormat);
  for (std::string* body : {&missing, &zero, &current}) {
    PutFixed32(body, crc32c::Mask(crc32c::Value(body->data(), body->size())));
  }
  SSTableMetadata out;
  EXPECT_TRUE(out.DecodeFrom(current).ok());  // the hand-built body is sound
  EXPECT_TRUE(out.DecodeFrom(missing).IsCorruption());
  EXPECT_TRUE(out.DecodeFrom(zero).IsCorruption());
}

TEST(SSTableReaderTest, CompressedTableReadsBack) {
  SSTableBuilderOptions opt;
  opt.block_size = 1024;
  opt.compressor = GetCompressor(kNovaLzCompression);
  SSTableBuilder builder(opt);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 500; i++) {
    std::string k = KeyNum(i);
    std::string v = std::string(64, 'v') + std::to_string(i);
    builder.Add(IKey(k, i + 1), v);
    model[k] = v;
  }
  auto result = builder.Finish(5, 3);
  // The 'v'-runs compress well: the stored table is smaller than raw.
  EXPECT_LT(result.data.size(), result.raw_bytes);

  MemoryFetcher fetcher(result.data, result.meta.fragment_sizes);
  SSTableReader reader(result.meta, &fetcher);
  for (auto& [k, v] : model) {
    LookupKey lkey(k, kMaxSequenceNumber);
    std::string value;
    Status s;
    ASSERT_TRUE(reader.Get(lkey, &value, &s)) << k;
    ASSERT_TRUE(s.ok());
    ASSERT_EQ(value, v);
  }
  std::unique_ptr<Iterator> iter(reader.NewIterator());
  size_t n = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    n++;
  }
  EXPECT_EQ(n, model.size());
}

TEST(SSTableReaderTest, CorruptFragmentSurfacesAsStatusNotCrash) {
  SSTableBuilderOptions opt;
  opt.block_size = 512;
  opt.compressor = GetCompressor(kNovaLzCompression);
  SSTableBuilder builder(opt);
  for (int i = 0; i < 200; i++) {
    builder.Add(IKey(KeyNum(i), i + 1), "value" + std::string(30, 'w'));
  }
  auto result = builder.Finish(6, 1);

  // Flip one byte at a time across the whole fragment. A get whose block
  // is intact may still succeed — but it must return the right bytes; a
  // get landing in the corrupted block must fail with a status (crc
  // verified before decompression), never crash, never return garbage.
  const std::string expected = "value" + std::string(30, 'w');
  int failed_gets = 0;
  for (size_t pos = 0; pos < result.data.size();
       pos += 1 + pos % 7) {  // stride keeps the sweep fast but dense
    std::string corrupt = result.data;
    corrupt[pos] ^= 0x01;
    MemoryFetcher fetcher(corrupt, result.meta.fragment_sizes);
    SSTableReader reader(result.meta, &fetcher);
    for (int i = 0; i < 200; i += 23) {
      LookupKey lkey(KeyNum(i), kMaxSequenceNumber);
      std::string value;
      Status s;
      bool found = reader.Get(lkey, &value, &s);
      if (found && s.ok()) {
        ASSERT_EQ(value, expected) << "byte " << pos << " key " << i;
      } else {
        failed_gets++;
      }
    }
  }
  // The sweep covered every block, so some gets must have hit the
  // corruption and been rejected.
  EXPECT_GT(failed_gets, 0);
}

TEST(MergingIteratorTest, MergesSortedStreams) {
  InternalKeyComparator icmp;
  // Three SSTables with interleaved keys.
  std::vector<std::unique_ptr<MemoryFetcher>> fetchers;
  std::vector<std::unique_ptr<SSTableReader>> readers;
  std::map<std::string, std::string> model;
  for (int t = 0; t < 3; t++) {
    SSTableBuilder builder;
    for (int i = t; i < 300; i += 3) {
      std::string k = KeyNum(i);
      std::string v = "v" + std::to_string(i);
      builder.Add(IKey(k, 1), v);
      model[k] = v;
    }
    auto result = builder.Finish(t, 2);
    fetchers.push_back(std::make_unique<MemoryFetcher>(
        result.data, result.meta.fragment_sizes));
    readers.push_back(
        std::make_unique<SSTableReader>(result.meta, fetchers.back().get()));
  }
  std::vector<Iterator*> children;
  for (auto& r : readers) {
    children.push_back(r->NewIterator());
  }
  std::unique_ptr<Iterator> merged(NewMergingIterator(&icmp, children));
  merged->SeekToFirst();
  auto it = model.begin();
  while (merged->Valid()) {
    ASSERT_NE(it, model.end());
    EXPECT_EQ(ExtractUserKey(merged->key()).ToString(), it->first);
    ++it;
    merged->Next();
  }
  EXPECT_EQ(it, model.end());

  // Seek into the middle then iterate backward one step.
  merged->Seek(IKey(KeyNum(150), kMaxSequenceNumber));
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ(ExtractUserKey(merged->key()).ToString(), KeyNum(150));
  merged->Prev();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ(ExtractUserKey(merged->key()).ToString(), KeyNum(149));
}

}  // namespace
}  // namespace nova
