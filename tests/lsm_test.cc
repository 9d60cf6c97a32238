// Unit & property tests for the LSM metadata layer: file metadata and
// version-edit serialization, version queries, MANIFEST group commit
// (batching, recovery, failed batches, readers never waiting on the
// append), compaction picking (disjointness invariants under parameter
// sweeps), and placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "lsm/compaction.h"
#include "lsm/file_meta.h"
#include "lsm/table_io.h"
#include "lsm/version.h"
#include "util/random.h"

namespace nova {
namespace lsm {
namespace {

std::string Key(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "user%012llu",
           static_cast<unsigned long long>(i));
  return buf;
}

FileMetaData MakeFile(uint64_t number, uint64_t lo, uint64_t hi) {
  FileMetaData f;
  f.number = number;
  f.data_size = 1000;
  f.smallest = InternalKey(Key(lo), 1, kTypeValue);
  f.largest = InternalKey(Key(hi), 1, kTypeValue);
  f.fragments = {{BlockLocation{0, number * 10}}};
  f.fragment_sizes = {1000};
  f.meta_replicas = {BlockLocation{0, number * 10 + 1}};
  return f;
}

TEST(FileMetaTest, EncodeDecodeRoundTrip) {
  FileMetaData f = MakeFile(42, 100, 200);
  f.fragments = {{BlockLocation{1, 11}, BlockLocation{2, 22}},
                 {BlockLocation{3, 33}}};
  f.fragment_sizes = {600, 400};
  f.meta_replicas = {BlockLocation{1, 44}, BlockLocation{2, 55}};
  f.parity = BlockLocation{4, 66};

  std::string buf;
  f.EncodeTo(&buf);
  Slice in(buf);
  FileMetaData g;
  ASSERT_TRUE(g.DecodeFrom(&in).ok());
  EXPECT_EQ(g.number, 42u);
  ASSERT_EQ(g.fragments.size(), 2u);
  EXPECT_EQ(g.fragments[0][1].stoc_id, 2);
  EXPECT_EQ(g.fragments[0][1].file_id, 22u);
  EXPECT_EQ(g.fragment_sizes, f.fragment_sizes);
  EXPECT_EQ(g.parity.stoc_id, 4);
  EXPECT_EQ(g.smallest.user_key().ToString(), Key(100));
}

TEST(VersionEditTest, RoundTripWithDrangeState) {
  VersionEdit edit;
  edit.new_files.emplace_back(0, MakeFile(1, 0, 99));
  edit.new_files.emplace_back(2, MakeFile(2, 100, 199));
  edit.deleted_files.emplace_back(1, 77);
  edit.drange_state = "opaque-drange-bytes";
  std::string buf;
  edit.EncodeTo(&buf);
  VersionEdit out;
  ASSERT_TRUE(out.DecodeFrom(buf).ok());
  ASSERT_EQ(out.new_files.size(), 2u);
  EXPECT_EQ(out.new_files[1].first, 2);
  ASSERT_EQ(out.deleted_files.size(), 1u);
  EXPECT_EQ(out.deleted_files[0].second, 77u);
  EXPECT_EQ(out.drange_state, "opaque-drange-bytes");
}

TEST(VersionSetTest, ApplyAndRecover) {
  LsmOptions opt;
  std::vector<std::string> manifest;
  VersionSet vs(opt, [&manifest](const std::vector<std::string>& records) {
    manifest.insert(manifest.end(), records.begin(), records.end());
    return Status::OK();
  });

  VersionEdit e1;
  e1.new_files.emplace_back(0, MakeFile(1, 0, 99));
  e1.new_files.emplace_back(0, MakeFile(2, 100, 199));
  ASSERT_TRUE(vs.LogAndApply(&e1).ok());
  VersionEdit e2;
  e2.deleted_files.emplace_back(0, 1);
  e2.new_files.emplace_back(1, MakeFile(3, 0, 99));
  ASSERT_TRUE(vs.LogAndApply(&e2).ok());

  VersionRef v = vs.current();
  EXPECT_EQ(v->files(0).size(), 1u);
  EXPECT_EQ(v->files(0)[0]->number, 2u);
  EXPECT_EQ(v->files(1).size(), 1u);
  EXPECT_EQ(vs.manifest_version(), 2u);

  // Replay into a fresh VersionSet.
  VersionSet vs2(opt, nullptr);
  ASSERT_TRUE(vs2.Recover(manifest).ok());
  VersionRef v2 = vs2.current();
  EXPECT_EQ(v2->files(0).size(), 1u);
  EXPECT_EQ(v2->files(0)[0]->number, 2u);
  EXPECT_EQ(v2->files(1).size(), 1u);
  EXPECT_EQ(vs2.manifest_version(), 2u);
}

/// MANIFEST sink for the group-commit tests: calls wait at a gate while it
/// is closed, calls from fail_from on fail, and every batch is recorded.
class GatedSink {
 public:
  ManifestSink AsSink() {
    return [this](const std::vector<std::string>& records) {
      return Append(records);
    };
  }

  void Close() {
    std::lock_guard<std::mutex> l(mu_);
    open_ = false;
  }
  void Open() {
    std::lock_guard<std::mutex> l(mu_);
    open_ = true;
    cv_.notify_all();
  }
  /// Calls numbered fail_from and later return an I/O error.
  void FailFrom(int fail_from) {
    std::lock_guard<std::mutex> l(mu_);
    fail_from_ = fail_from;
  }
  /// Block until `n` calls have entered the sink.
  void WaitForCalls(int n) {
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [&] { return calls_ >= n; });
  }

  int calls() {
    std::lock_guard<std::mutex> l(mu_);
    return calls_;
  }
  /// Records of the successful calls, in append order.
  std::vector<std::string> records() {
    std::lock_guard<std::mutex> l(mu_);
    return records_;
  }
  /// Batch size of each failed call.
  std::vector<size_t> failed_batches() {
    std::lock_guard<std::mutex> l(mu_);
    return failed_batches_;
  }

 private:
  Status Append(const std::vector<std::string>& records) {
    std::unique_lock<std::mutex> l(mu_);
    int call = ++calls_;
    cv_.notify_all();
    cv_.wait(l, [&] { return open_; });
    if (fail_from_ > 0 && call >= fail_from_) {
      failed_batches_.push_back(records.size());
      return Status::IOError("manifest sink failed");
    }
    records_.insert(records_.end(), records.begin(), records.end());
    return Status::OK();
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = true;
  int fail_from_ = 0;
  int calls_ = 0;
  std::vector<std::string> records_;
  std::vector<size_t> failed_batches_;
};

/// File numbers per level, in the version's order.
std::vector<std::vector<uint64_t>> Layout(const Version& v) {
  std::vector<std::vector<uint64_t>> layout(v.num_levels());
  for (int level = 0; level < v.num_levels(); level++) {
    for (const auto& f : v.files(level)) {
      layout[level].push_back(f->number);
    }
  }
  return layout;
}

TEST(VersionSetGroupCommitTest, CurrentReturnsWhileAppendIsBlocked) {
  LsmOptions opt;
  GatedSink sink;
  sink.Close();
  VersionSet vs(opt, sink.AsSink());
  VersionEdit edit;
  edit.new_files.emplace_back(0, MakeFile(1, 0, 99));
  std::thread writer([&] { EXPECT_TRUE(vs.LogAndApply(&edit).ok()); });
  sink.WaitForCalls(1);

  auto reader = std::async(std::launch::async, [&] { return vs.current(); });
  bool returned =
      reader.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  sink.Open();
  writer.join();
  ASSERT_TRUE(returned) << "current() waited on the MANIFEST append";
  // The edit is published only after its append succeeded.
  EXPECT_EQ(reader.get()->NumFiles(), 0);
  EXPECT_EQ(vs.current()->NumFiles(), 1);
}

TEST(VersionSetGroupCommitTest, ConcurrentEditsShareAppendsAndRecover) {
  constexpr int kThreads = 8;
  constexpr int kEditsPerThread = 25;
  LsmOptions opt;
  GatedSink sink;
  sink.Close();
  VersionSet vs(opt, sink.AsSink());
  std::atomic<uint64_t> sequence{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      uint64_t previous = 0;
      for (int i = 0; i < kEditsPerThread; i++) {
        vs.SetLastSequence(sequence.fetch_add(1) + 1);
        uint64_t number = vs.NewFileNumber();
        VersionEdit edit;
        edit.new_files.emplace_back(
            0, MakeFile(number, t * 1000 + i, t * 1000 + i + 1));
        if (i % 2 == 1) {
          // Retire the thread's previous file as a compaction would.
          edit.deleted_files.emplace_back(0, previous);
          edit.new_files.emplace_back(
              1, MakeFile(vs.NewFileNumber(), t * 1000 + i, t * 1000 + i));
        }
        previous = number;
        if (!vs.LogAndApply(&edit).ok()) {
          failures++;
        }
      }
    });
  }
  // Hold the first append so the other writers queue behind it.
  sink.WaitForCalls(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  sink.Open();
  for (auto& t : threads) {
    t.join();
  }
  ASSERT_EQ(failures.load(), 0);
  const int edits = kThreads * kEditsPerThread;
  EXPECT_LT(sink.calls(), edits);
  EXPECT_EQ(vs.manifest_version(), static_cast<uint64_t>(edits));
  std::vector<std::string> records = sink.records();
  ASSERT_EQ(records.size(), static_cast<size_t>(edits));
  // Every edit adds an L0 file; every second one retires the one before
  // it and adds an L1 file.
  VersionRef v = vs.current();
  const int retired = kEditsPerThread / 2;
  EXPECT_EQ(v->files(0).size(),
            static_cast<size_t>(kThreads * (kEditsPerThread - retired)));
  EXPECT_EQ(v->files(1).size(), static_cast<size_t>(kThreads * retired));

  VersionSet recovered(opt, nullptr);
  ASSERT_TRUE(recovered.Recover(records).ok());
  EXPECT_EQ(Layout(*recovered.current()), Layout(*v));
  EXPECT_EQ(recovered.last_sequence(), vs.last_sequence());
  EXPECT_EQ(recovered.last_sequence(), static_cast<uint64_t>(edits));
  EXPECT_EQ(recovered.NewFileNumber(), vs.NewFileNumber());
  EXPECT_EQ(recovered.manifest_version(), static_cast<uint64_t>(edits));
}

TEST(VersionSetGroupCommitTest, FailedAppendFailsItsWholeBatch) {
  constexpr int kFollowers = 6;
  LsmOptions opt;
  GatedSink sink;
  sink.Close();
  sink.FailFrom(2);
  VersionSet vs(opt, sink.AsSink());

  VersionEdit first;
  first.new_files.emplace_back(0, MakeFile(1, 0, 99));
  first.drange_state = "committed";
  std::thread leader([&] { EXPECT_TRUE(vs.LogAndApply(&first).ok()); });
  sink.WaitForCalls(1);

  std::atomic<int> started{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> followers;
  for (int i = 0; i < kFollowers; i++) {
    followers.emplace_back([&, i] {
      VersionEdit edit;
      edit.new_files.emplace_back(
          0, MakeFile(10 + i, 100 * (i + 1), 100 * (i + 1) + 50));
      edit.drange_state = "lost";
      started++;
      if (!vs.LogAndApply(&edit).ok()) {
        failed++;
      }
    });
  }
  while (started.load() < kFollowers) {
    std::this_thread::yield();
  }
  // Let the followers queue behind the held append, then release it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  sink.Open();
  leader.join();
  for (auto& t : followers) {
    t.join();
  }

  EXPECT_EQ(failed.load(), kFollowers);
  size_t failed_edits = 0;
  size_t largest_batch = 0;
  for (size_t n : sink.failed_batches()) {
    failed_edits += n;
    largest_batch = std::max(largest_batch, n);
  }
  EXPECT_EQ(failed_edits, static_cast<size_t>(kFollowers));
  EXPECT_GT(largest_batch, 1u) << "the queued edits were not batched";
  // Nothing of a failed batch is published.
  VersionRef v = vs.current();
  ASSERT_EQ(v->NumFiles(), 1);
  EXPECT_EQ(v->files(0)[0]->number, 1u);
  EXPECT_EQ(vs.manifest_version(), 1u);
  EXPECT_EQ(vs.drange_state(), "committed");
  EXPECT_EQ(sink.records().size(), 1u);
}

TEST(VersionTest, FileForKeyBinarySearch) {
  LsmOptions opt;
  VersionSet vs(opt, nullptr);
  VersionEdit e;
  e.new_files.emplace_back(1, MakeFile(1, 0, 99));
  e.new_files.emplace_back(1, MakeFile(2, 100, 199));
  e.new_files.emplace_back(1, MakeFile(3, 300, 399));
  ASSERT_TRUE(vs.LogAndApply(&e).ok());
  VersionRef v = vs.current();
  ASSERT_NE(v->FileForKey(1, Key(150)), nullptr);
  EXPECT_EQ(v->FileForKey(1, Key(150))->number, 2u);
  EXPECT_EQ(v->FileForKey(1, Key(0))->number, 1u);
  EXPECT_EQ(v->FileForKey(1, Key(399))->number, 3u);
  EXPECT_EQ(v->FileForKey(1, Key(250)), nullptr);  // gap
  EXPECT_EQ(v->FileForKey(1, Key(999)), nullptr);  // past the end
}

TEST(VersionTest, OverlappingFiles) {
  LsmOptions opt;
  VersionSet vs(opt, nullptr);
  VersionEdit e;
  e.new_files.emplace_back(0, MakeFile(1, 0, 150));
  e.new_files.emplace_back(0, MakeFile(2, 100, 250));
  e.new_files.emplace_back(0, MakeFile(3, 300, 400));
  ASSERT_TRUE(vs.LogAndApply(&e).ok());
  VersionRef v = vs.current();
  auto overlap = v->OverlappingFiles(0, Key(120), Key(140));
  EXPECT_EQ(overlap.size(), 2u);
  overlap = v->OverlappingFiles(0, Key(260), Key(290));
  EXPECT_TRUE(overlap.empty());
  overlap = v->OverlappingFiles(0, Key(0), "");  // unbounded above
  EXPECT_EQ(overlap.size(), 3u);
}

/// Property: compaction jobs picked for any level are pairwise disjoint —
/// no file (input or next-level) appears in two jobs.
class CompactionPickerProperty : public testing::TestWithParam<int> {};

TEST_P(CompactionPickerProperty, JobsAreDisjoint) {
  int seed = GetParam();
  Random rng(seed);
  LsmOptions opt;
  opt.l0_compaction_trigger_bytes = 1;  // always compact
  VersionSet vs(opt, nullptr);
  VersionEdit e;
  uint64_t number = 1;
  // L0: files produced by 4 "Dranges" (disjoint groups, overlapping
  // within a group), plus some L1 files.
  for (int d = 0; d < 4; d++) {
    uint64_t lo = d * 1000;
    for (int i = 0; i < 1 + static_cast<int>(rng.Uniform(4)); i++) {
      uint64_t a = lo + rng.Uniform(400);
      uint64_t b = a + 1 + rng.Uniform(400);
      e.new_files.emplace_back(0, MakeFile(number++, a, std::min(b, lo + 999)));
    }
  }
  for (int i = 0; i < 6; i++) {
    uint64_t a = i * 600;
    e.new_files.emplace_back(1, MakeFile(number++, a, a + 550));
  }
  ASSERT_TRUE(vs.LogAndApply(&e).ok());

  auto jobs = CompactionPicker::Pick(vs, vs.current(), 16);
  ASSERT_FALSE(jobs.empty());
  std::set<uint64_t> seen;
  for (const auto& job : jobs) {
    for (const auto& f : job.inputs) {
      EXPECT_TRUE(seen.insert(f->number).second)
          << "file " << f->number << " in two jobs";
    }
    for (const auto& f : job.inputs_next) {
      EXPECT_TRUE(seen.insert(f->number).second)
          << "file " << f->number << " in two jobs";
    }
    // Within a job, every next-level file overlaps some input.
    for (const auto& nf : job.inputs_next) {
      bool overlaps_any = false;
      for (const auto& f : job.inputs) {
        if (f->smallest.user_key().compare(nf->largest.user_key()) <= 0 &&
            nf->smallest.user_key().compare(f->largest.user_key()) <= 0) {
          overlaps_any = true;
        }
      }
      EXPECT_TRUE(overlaps_any);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompactionPickerProperty,
                         testing::Range(1, 12));

TEST(CompactionPickerTest, PicksMostOversizedLevel) {
  LsmOptions opt;
  opt.l0_compaction_trigger_bytes = 100000;  // L0 fine
  opt.base_level_bytes = 500;                // L1 hugely oversized
  VersionSet vs(opt, nullptr);
  VersionEdit e;
  e.new_files.emplace_back(1, MakeFile(1, 0, 99));
  e.new_files.emplace_back(1, MakeFile(2, 100, 199));
  e.new_files.emplace_back(2, MakeFile(3, 0, 500));
  ASSERT_TRUE(vs.LogAndApply(&e).ok());
  auto jobs = CompactionPicker::Pick(vs, vs.current(), 4);
  ASSERT_FALSE(jobs.empty());
  EXPECT_EQ(jobs[0].input_level, 1);
  EXPECT_EQ(jobs[0].output_level, 2);
}

TEST(CompactionPickerTest, NothingToDoWhenUnderLimits) {
  LsmOptions opt;
  VersionSet vs(opt, nullptr);
  VersionEdit e;
  e.new_files.emplace_back(0, MakeFile(1, 0, 99));
  ASSERT_TRUE(vs.LogAndApply(&e).ok());
  auto jobs = CompactionPicker::Pick(vs, vs.current(), 4);
  EXPECT_TRUE(jobs.empty());  // 1000 bytes < trigger
}

TEST(CompactionJobTest, SerializeRoundTrip) {
  CompactionJob job;
  job.input_level = 0;
  job.output_level = 1;
  job.inputs.push_back(std::make_shared<FileMetaData>(MakeFile(1, 0, 99)));
  job.inputs_next.push_back(
      std::make_shared<FileMetaData>(MakeFile(2, 50, 150)));
  job.boundaries = {Key(50), Key(90)};
  job.max_output_bytes = 12345;
  job.is_last_level = true;
  job.first_output_number = 77;
  job.compression_codec = 1;

  CompactionJob out;
  ASSERT_TRUE(out.Deserialize(job.Serialize()).ok());
  EXPECT_EQ(out.input_level, 0);
  EXPECT_EQ(out.output_level, 1);
  ASSERT_EQ(out.inputs.size(), 1u);
  EXPECT_EQ(out.inputs[0]->number, 1u);
  EXPECT_EQ(out.boundaries, job.boundaries);
  EXPECT_EQ(out.max_output_bytes, 12345u);
  EXPECT_TRUE(out.is_last_level);
  EXPECT_EQ(out.first_output_number, 77u);
  EXPECT_EQ(out.compression_codec, 1);
}

TEST(CompactionResultTest, SerializeRoundTrip) {
  CompactionResult result;
  result.outputs.push_back(MakeFile(9, 0, 50));
  result.records_in = 100;
  result.records_out = 80;
  result.prefetches = 7;
  result.bytes_read = 4096;
  result.bytes_written = 2048;
  result.raw_bytes_written = 4000;
  CompactionResult out;
  ASSERT_TRUE(out.Deserialize(result.Serialize()).ok());
  ASSERT_EQ(out.outputs.size(), 1u);
  EXPECT_EQ(out.outputs[0].number, 9u);
  EXPECT_EQ(out.records_in, 100u);
  EXPECT_EQ(out.records_out, 80u);
  EXPECT_EQ(out.prefetches, 7u);
  EXPECT_EQ(out.bytes_read, 4096u);
  EXPECT_EQ(out.bytes_written, 2048u);
  EXPECT_EQ(out.raw_bytes_written, 4000u);
}

/// Fuzz-ish: random jobs — empty input lists, empty boundary sets, huge
/// file numbers, raw/compressed outputs — must round-trip exactly, and a
/// truncated encoding must fail cleanly rather than misparse.
TEST(CompactionJobTest, SerializeRoundTripFuzz) {
  Random rng(20260807);
  for (int iter = 0; iter < 200; iter++) {
    CompactionJob job;
    job.input_level = rng.Uniform(6);
    job.output_level = job.input_level + 1;
    uint32_t n_in = rng.Uniform(5);
    for (uint32_t i = 0; i < n_in; i++) {
      uint64_t lo = rng.Uniform(10000);
      job.inputs.push_back(std::make_shared<FileMetaData>(
          MakeFile(rng.Next(), lo, lo + rng.Uniform(500))));
    }
    uint32_t n_next = rng.Uniform(4);  // often 0: pure L0 components
    for (uint32_t i = 0; i < n_next; i++) {
      uint64_t lo = rng.Uniform(10000);
      job.inputs_next.push_back(std::make_shared<FileMetaData>(
          MakeFile(rng.Next(), lo, lo + rng.Uniform(500))));
    }
    uint32_t n_bounds = rng.Uniform(5);
    for (uint32_t i = 0; i < n_bounds; i++) {
      job.boundaries.push_back(Key(rng.Uniform(100000)));
    }
    if (rng.OneIn(5)) {
      job.boundaries.push_back("");  // empty boundary key
    }
    job.max_output_bytes = rng.OneIn(3) ? 0 : (uint64_t{1} << rng.Uniform(40));
    job.is_last_level = rng.OneIn(2);
    job.first_output_number = rng.Next();
    job.compression_codec = rng.OneIn(2) ? 0 : static_cast<int>(rng.Uniform(4));

    std::string encoded = job.Serialize();
    CompactionJob out;
    ASSERT_TRUE(out.Deserialize(encoded).ok()) << "iter " << iter;
    EXPECT_EQ(out.input_level, job.input_level);
    EXPECT_EQ(out.output_level, job.output_level);
    ASSERT_EQ(out.inputs.size(), job.inputs.size());
    for (size_t i = 0; i < job.inputs.size(); i++) {
      EXPECT_EQ(out.inputs[i]->number, job.inputs[i]->number);
      EXPECT_EQ(out.inputs[i]->smallest.Encode().ToString(),
                job.inputs[i]->smallest.Encode().ToString());
    }
    ASSERT_EQ(out.inputs_next.size(), job.inputs_next.size());
    for (size_t i = 0; i < job.inputs_next.size(); i++) {
      EXPECT_EQ(out.inputs_next[i]->number, job.inputs_next[i]->number);
    }
    EXPECT_EQ(out.boundaries, job.boundaries);
    EXPECT_EQ(out.max_output_bytes, job.max_output_bytes);
    EXPECT_EQ(out.is_last_level, job.is_last_level);
    EXPECT_EQ(out.first_output_number, job.first_output_number);
    EXPECT_EQ(out.compression_codec, job.compression_codec);

    // Re-encoding the decoded job must be byte-identical (canonical form).
    EXPECT_EQ(out.Serialize(), encoded) << "iter " << iter;

    // Any strict prefix must be rejected, not misread.
    if (!encoded.empty()) {
      size_t cut = rng.Uniform(static_cast<uint32_t>(encoded.size()));
      CompactionJob trunc;
      EXPECT_FALSE(trunc.Deserialize(Slice(encoded.data(), cut)).ok())
          << "iter " << iter << " cut " << cut;
    }
  }
}

}  // namespace
}  // namespace lsm
}  // namespace nova
