#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mem/arena.h"
#include "mem/dbformat.h"
#include "mem/memtable.h"
#include "mem/skiplist.h"
#include "util/random.h"

namespace nova {
namespace {

TEST(ArenaTest, AllocatesAndTracks) {
  Arena arena;
  std::vector<char*> ptrs;
  for (int i = 1; i < 1000; i += 7) {
    char* p = arena.Allocate(i);
    ASSERT_NE(p, nullptr);
    memset(p, 0xab, i);  // must be writable
    ptrs.push_back(p);
  }
  EXPECT_GT(arena.MemoryUsage(), 0u);
  char* aligned = arena.AllocateAligned(100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(aligned) % sizeof(void*), 0u);
}

struct IntComparator {
  int operator()(const uint64_t& a, const uint64_t& b) const {
    if (a < b) return -1;
    if (a > b) return +1;
    return 0;
  }
};

TEST(SkipListTest, InsertAndLookup) {
  Arena arena;
  SkipList<uint64_t, IntComparator> list(IntComparator(), &arena);
  Random rng(301);
  std::set<uint64_t> keys;
  for (int i = 0; i < 2000; i++) {
    uint64_t k = rng.Uniform(10000);
    if (keys.insert(k).second) {
      list.Insert(k);
    }
  }
  for (uint64_t k = 0; k < 10000; k++) {
    EXPECT_EQ(list.Contains(k), keys.count(k) > 0) << k;
  }
  // Iteration order matches the sorted set.
  SkipList<uint64_t, IntComparator>::Iterator iter(&list);
  iter.SeekToFirst();
  for (uint64_t k : keys) {
    ASSERT_TRUE(iter.Valid());
    EXPECT_EQ(iter.key(), k);
    iter.Next();
  }
  EXPECT_FALSE(iter.Valid());
}

TEST(SkipListTest, SeekSemantics) {
  Arena arena;
  SkipList<uint64_t, IntComparator> list(IntComparator(), &arena);
  for (uint64_t k = 0; k < 100; k += 10) {
    list.Insert(k);
  }
  SkipList<uint64_t, IntComparator>::Iterator iter(&list);
  iter.Seek(35);
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(iter.key(), 40u);
  iter.Prev();
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(iter.key(), 30u);
  iter.SeekToLast();
  EXPECT_EQ(iter.key(), 90u);
  iter.Seek(1000);
  EXPECT_FALSE(iter.Valid());
}

TEST(DbFormatTest, InternalKeyOrdering) {
  InternalKeyComparator cmp;
  auto make = [](const std::string& ukey, SequenceNumber seq, ValueType t) {
    std::string s;
    AppendInternalKey(&s, ParsedInternalKey(ukey, seq, t));
    return s;
  };
  // Same user key: higher sequence sorts first.
  std::string a = make("k", 100, kTypeValue);
  std::string b = make("k", 50, kTypeValue);
  EXPECT_LT(cmp.Compare(a, b), 0);
  // Different user keys order bytewise regardless of sequence.
  std::string c = make("a", 1, kTypeValue);
  std::string d = make("b", 1000, kTypeValue);
  EXPECT_LT(cmp.Compare(c, d), 0);
  // Round trip.
  ParsedInternalKey parsed;
  ASSERT_TRUE(ParseInternalKey(a, &parsed));
  EXPECT_EQ(parsed.user_key.ToString(), "k");
  EXPECT_EQ(parsed.sequence, 100u);
  EXPECT_EQ(parsed.type, kTypeValue);
}

TEST(DbFormatTest, LookupKeyParts) {
  LookupKey lkey("user_key_1", 42);
  EXPECT_EQ(lkey.user_key().ToString(), "user_key_1");
  EXPECT_EQ(ExtractSequence(lkey.internal_key()), 42u);
  EXPECT_EQ(ExtractUserKey(lkey.internal_key()).ToString(), "user_key_1");
}

class MemTableTest : public testing::Test {
 protected:
  MemTableTest() : mem_(std::make_shared<MemTable>(icmp_, 1)) {}

  bool Get(const std::string& key, SequenceNumber snapshot, std::string* value,
           Status* s) {
    LookupKey lkey(key, snapshot);
    return mem_->Get(lkey, value, s);
  }

  InternalKeyComparator icmp_;
  MemTableRef mem_;
};

TEST_F(MemTableTest, AddGetVersions) {
  mem_->Add(10, kTypeValue, "apple", "v1");
  mem_->Add(20, kTypeValue, "apple", "v2");
  mem_->Add(15, kTypeValue, "banana", "b1");

  std::string value;
  Status s;
  // Latest visible at a fresh snapshot.
  ASSERT_TRUE(Get("apple", kMaxSequenceNumber, &value, &s));
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(value, "v2");
  // Snapshot isolation: at sequence 12 only v1 is visible.
  ASSERT_TRUE(Get("apple", 12, &value, &s));
  EXPECT_EQ(value, "v1");
  // Below the first write: not found in this table.
  EXPECT_FALSE(Get("apple", 5, &value, &s));
  // Unknown key.
  EXPECT_FALSE(Get("cherry", kMaxSequenceNumber, &value, &s));
}

TEST_F(MemTableTest, DeletionTombstone) {
  mem_->Add(10, kTypeValue, "k", "v");
  mem_->Add(20, kTypeDeletion, "k", "");
  std::string value;
  Status s;
  ASSERT_TRUE(Get("k", kMaxSequenceNumber, &value, &s));
  EXPECT_TRUE(s.IsNotFound());
  ASSERT_TRUE(Get("k", 15, &value, &s));
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(value, "v");
}

TEST_F(MemTableTest, IteratorSortedAndComplete) {
  const int n = 500;
  Random rng(17);
  for (int i = 0; i < n; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%06llu",
             static_cast<unsigned long long>(rng.Uniform(100000)));
    mem_->Add(i + 1, kTypeValue, buf, "value");
  }
  std::unique_ptr<Iterator> iter(mem_->NewIterator());
  iter->SeekToFirst();
  int count = 0;
  std::string prev;
  while (iter->Valid()) {
    std::string cur = iter->key().ToString();
    if (!prev.empty()) {
      EXPECT_LT(icmp_.Compare(prev, cur), 0);
    }
    prev = cur;
    count++;
    iter->Next();
  }
  EXPECT_EQ(count, n);
}

TEST_F(MemTableTest, UniqueKeyCountAndBounds) {
  mem_->Add(1, kTypeValue, "b", "1");
  mem_->Add(2, kTypeValue, "b", "2");
  mem_->Add(3, kTypeValue, "a", "3");
  mem_->Add(4, kTypeValue, "c", "4");
  mem_->Add(5, kTypeValue, "c", "5");
  EXPECT_EQ(mem_->CountUniqueKeys(), 3u);
  EXPECT_EQ(mem_->SmallestUserKey(), "a");
  EXPECT_EQ(mem_->LargestUserKey(), "c");
  EXPECT_EQ(mem_->num_entries(), 5u);
}

TEST_F(MemTableTest, ConcurrentWritersAndReaders) {
  // Multiple writers to the same memtable must be safe (per-table mutex);
  // readers run lock-free concurrently.
  const int kWriters = 4;
  const int kPerWriter = 2000;
  std::atomic<uint64_t> seq{1};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; i++) {
        char buf[32];
        snprintf(buf, sizeof(buf), "w%d-key%05d", w, i);
        mem_->Add(seq.fetch_add(1), kTypeValue, buf, "v");
      }
    });
  }
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      std::string value;
      Status s;
      LookupKey lkey("w0-key00000", kMaxSequenceNumber);
      mem_->Get(lkey, &value, &s);
    }
  });
  for (auto& t : threads) {
    t.join();
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(mem_->num_entries(),
            static_cast<uint64_t>(kWriters * kPerWriter));
  EXPECT_EQ(mem_->CountUniqueKeys(),
            static_cast<uint64_t>(kWriters * kPerWriter));
}

TEST_F(MemTableTest, MetadataFields) {
  EXPECT_EQ(mem_->id(), 1u);
  mem_->set_drange_id(7);
  EXPECT_EQ(mem_->drange_id(), 7);
  EXPECT_FALSE(mem_->immutable());
  mem_->MarkImmutable();
  EXPECT_TRUE(mem_->immutable());
}

}  // namespace
}  // namespace nova
