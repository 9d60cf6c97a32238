#include "lsm/version.h"

#include <algorithm>

#include "util/coding.h"

namespace nova {
namespace lsm {

uint64_t Version::LevelBytes(int level) const {
  uint64_t total = 0;
  for (const auto& f : levels_[level]) {
    total += f->data_size;
  }
  return total;
}

int Version::NumFiles() const {
  int n = 0;
  for (const auto& level : levels_) {
    n += static_cast<int>(level.size());
  }
  return n;
}

std::vector<FileMetaRef> Version::OverlappingFiles(int level,
                                                   const Slice& begin,
                                                   const Slice& end) const {
  std::vector<FileMetaRef> result;
  for (const auto& f : levels_[level]) {
    // Intersect [f.smallest, f.largest] with [begin, end] on user keys.
    if (!end.empty() && f->smallest.user_key().compare(end) > 0) {
      continue;
    }
    if (!begin.empty() && f->largest.user_key().compare(begin) < 0) {
      continue;
    }
    result.push_back(f);
  }
  return result;
}

FileMetaRef Version::FileForKey(int level, const Slice& user_key) const {
  const auto& files = levels_[level];
  // Files at levels >= 1 are sorted by smallest key and disjoint.
  int lo = 0;
  int hi = static_cast<int>(files.size()) - 1;
  while (lo <= hi) {
    int mid = (lo + hi) / 2;
    if (files[mid]->largest.user_key().compare(user_key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  if (lo < static_cast<int>(files.size()) &&
      files[lo]->smallest.user_key().compare(user_key) <= 0) {
    return files[lo];
  }
  return nullptr;
}

FileMetaRef Version::Find(uint64_t number, int* level) const {
  for (int l = 0; l < num_levels(); l++) {
    for (const auto& f : levels_[l]) {
      if (f->number == number) {
        if (level != nullptr) {
          *level = l;
        }
        return f;
      }
    }
  }
  return nullptr;
}

void VersionEdit::EncodeTo(std::string* dst) const {
  PutVarint64(dst, manifest_version);
  PutVarint64(dst, last_sequence);
  PutVarint64(dst, next_file_number);
  PutVarint32(dst, static_cast<uint32_t>(new_files.size()));
  for (const auto& [level, meta] : new_files) {
    PutVarint32(dst, level);
    meta.EncodeTo(dst);
  }
  PutVarint32(dst, static_cast<uint32_t>(deleted_files.size()));
  for (const auto& [level, number] : deleted_files) {
    PutVarint32(dst, level);
    PutVarint64(dst, number);
  }
  PutLengthPrefixedSlice(dst, drange_state);
}

Status VersionEdit::DecodeFrom(Slice input) {
  uint32_t n_new, n_del;
  if (!GetVarint64(&input, &manifest_version) ||
      !GetVarint64(&input, &last_sequence) ||
      !GetVarint64(&input, &next_file_number) ||
      !GetVarint32(&input, &n_new)) {
    return Status::Corruption("bad version edit header");
  }
  new_files.clear();
  for (uint32_t i = 0; i < n_new; i++) {
    uint32_t level;
    FileMetaData meta;
    if (!GetVarint32(&input, &level)) {
      return Status::Corruption("bad edit file level");
    }
    Status s = meta.DecodeFrom(&input);
    if (!s.ok()) {
      return s;
    }
    new_files.emplace_back(level, std::move(meta));
  }
  if (!GetVarint32(&input, &n_del)) {
    return Status::Corruption("bad edit deletions");
  }
  deleted_files.clear();
  for (uint32_t i = 0; i < n_del; i++) {
    uint32_t level;
    uint64_t number;
    if (!GetVarint32(&input, &level) || !GetVarint64(&input, &number)) {
      return Status::Corruption("bad edit deletion");
    }
    deleted_files.emplace_back(level, number);
  }
  Slice ds;
  if (!GetLengthPrefixedSlice(&input, &ds)) {
    return Status::Corruption("bad edit drange state");
  }
  drange_state = ds.ToString();
  return Status::OK();
}

VersionSet::VersionSet(const LsmOptions& options,
                       ManifestSink manifest_append)
    : options_(options), manifest_append_(std::move(manifest_append)) {
  current_ = std::make_shared<Version>(options_.num_levels);
}

VersionRef VersionSet::current() const {
  std::lock_guard<std::mutex> l(mu_);
  return current_;
}

uint64_t VersionSet::ExpectedLevelBytes(int level) const {
  if (level == 0) {
    return options_.l0_compaction_trigger_bytes;
  }
  uint64_t size = options_.base_level_bytes;
  for (int i = 1; i < level; i++) {
    size *= 10;
  }
  return size;
}

VersionRef VersionSet::Apply(
    const Version& base, const std::vector<const VersionEdit*>& edits) const {
  auto next = std::make_shared<Version>(options_.num_levels);
  next->levels_ = base.levels_;
  for (const VersionEdit* edit : edits) {
    // An edit's deletions see the files before its own additions, so an
    // edit may replace a file under the same number.
    for (const auto& [level, number] : edit->deleted_files) {
      std::vector<FileMetaRef>& files = next->levels_[level];
      files.erase(std::remove_if(files.begin(), files.end(),
                                 [number = number](const FileMetaRef& f) {
                                   return f->number == number;
                                 }),
                  files.end());
    }
    for (const auto& [level, meta] : edit->new_files) {
      next->levels_[level].push_back(std::make_shared<FileMetaData>(meta));
    }
  }
  // Keep levels >= 1 sorted by smallest key; L0 sorted by file number
  // (newest last) so newer tables shadow older ones deterministically.
  InternalKeyComparator icmp;
  std::sort(next->levels_[0].begin(), next->levels_[0].end(),
            [](const FileMetaRef& a, const FileMetaRef& b) {
              return a->number < b->number;
            });
  for (int level = 1; level < options_.num_levels; level++) {
    std::sort(next->levels_[level].begin(), next->levels_[level].end(),
              [&icmp](const FileMetaRef& a, const FileMetaRef& b) {
                return icmp.Compare(a->smallest.Encode(),
                                    b->smallest.Encode()) < 0;
              });
  }
  return next;
}

void VersionSet::Install(VersionRef v,
                         const std::vector<const VersionEdit*>& edits) {
  std::lock_guard<std::mutex> l(mu_);
  current_ = std::move(v);
  for (const VersionEdit* edit : edits) {
    if (!edit->drange_state.empty()) {
      drange_state_ = edit->drange_state;
    }
  }
}

Status VersionSet::LogAndApply(VersionEdit* edit) {
  Writer w(edit);
  std::unique_lock<std::mutex> l(writers_mu_);
  writers_.push_back(&w);
  writers_cv_.wait(l, [&] { return w.done || writers_.front() == &w; });
  if (w.done) {
    return w.status;  // a leader committed this edit in its batch
  }
  // Leader: commit every edit queued so far. Callers that arrive during
  // the append queue behind this batch and commit in the next one.
  std::vector<Writer*> batch(writers_.begin(), writers_.end());
  l.unlock();

  std::vector<const VersionEdit*> edits;
  std::vector<std::string> records(batch.size());
  for (size_t i = 0; i < batch.size(); i++) {
    VersionEdit* e = batch[i]->edit;
    e->manifest_version = manifest_version_.load() + i + 1;
    e->last_sequence = last_sequence_.load();
    e->next_file_number = next_file_number_.load();
    e->EncodeTo(&records[i]);
    edits.push_back(e);
  }
  Status s;
  if (manifest_append_) {
    s = manifest_append_(records);
  }
  if (s.ok()) {
    Install(Apply(*current(), edits), edits);
    manifest_version_.fetch_add(edits.size());
  }

  l.lock();
  for (Writer* committed : batch) {
    writers_.pop_front();
    committed->status = s;
    committed->done = true;
  }
  writers_cv_.notify_all();
  return s;
}

Status VersionSet::Recover(const std::vector<std::string>& records) {
  std::vector<VersionEdit> edits(records.size());
  std::vector<const VersionEdit*> order;
  for (size_t i = 0; i < records.size(); i++) {
    Status s = edits[i].DecodeFrom(records[i]);
    if (!s.ok()) {
      return s;
    }
    order.push_back(&edits[i]);
  }
  for (const VersionEdit& edit : edits) {
    if (edit.last_sequence > last_sequence_.load()) {
      last_sequence_.store(edit.last_sequence);
    }
    if (edit.next_file_number > next_file_number_.load()) {
      next_file_number_.store(edit.next_file_number);
    }
  }
  Install(Apply(Version(options_.num_levels), order), order);
  if (!edits.empty()) {
    manifest_version_.store(edits.back().manifest_version);
  }
  return Status::OK();
}

std::string VersionSet::drange_state() const {
  std::lock_guard<std::mutex> l(mu_);
  return drange_state_;
}

}  // namespace lsm
}  // namespace nova
