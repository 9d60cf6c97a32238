#include "lsm/file_meta.h"

#include <algorithm>

#include "util/coding.h"

namespace nova {
namespace lsm {
namespace {

void PutLocation(std::string* dst, const BlockLocation& loc) {
  PutVarint32(dst, static_cast<uint32_t>(loc.stoc_id + 1));
  PutVarint64(dst, loc.file_id);
}

bool GetLocation(Slice* input, BlockLocation* loc) {
  uint32_t sid;
  if (!GetVarint32(input, &sid) || !GetVarint64(input, &loc->file_id)) {
    return false;
  }
  loc->stoc_id = static_cast<int32_t>(sid) - 1;
  return true;
}

}  // namespace

void FileMetaData::EncodeTo(std::string* dst) const {
  PutVarint64(dst, number);
  PutVarint64(dst, data_size);
  PutLengthPrefixedSlice(dst, smallest.Encode());
  PutLengthPrefixedSlice(dst, largest.Encode());
  PutVarint32(dst, static_cast<uint32_t>(fragments.size()));
  for (const auto& replicas : fragments) {
    PutVarint32(dst, static_cast<uint32_t>(replicas.size()));
    for (const auto& loc : replicas) {
      PutLocation(dst, loc);
    }
  }
  PutVarint32(dst, static_cast<uint32_t>(fragment_sizes.size()));
  for (uint64_t s : fragment_sizes) {
    PutVarint64(dst, s);
  }
  PutVarint32(dst, static_cast<uint32_t>(meta_replicas.size()));
  for (const auto& loc : meta_replicas) {
    PutLocation(dst, loc);
  }
  PutLocation(dst, parity);
}

Status FileMetaData::DecodeFrom(Slice* input) {
  Slice small, large;
  uint32_t nfrags, nsizes, nmeta;
  if (!GetVarint64(input, &number) || !GetVarint64(input, &data_size) ||
      !GetLengthPrefixedSlice(input, &small) ||
      !GetLengthPrefixedSlice(input, &large) || !GetVarint32(input, &nfrags)) {
    return Status::Corruption("bad file metadata");
  }
  smallest.DecodeFrom(small);
  largest.DecodeFrom(large);
  fragments.clear();
  for (uint32_t i = 0; i < nfrags; i++) {
    uint32_t nreplicas;
    if (!GetVarint32(input, &nreplicas)) {
      return Status::Corruption("bad fragment replicas");
    }
    std::vector<BlockLocation> replicas(nreplicas);
    for (uint32_t r = 0; r < nreplicas; r++) {
      if (!GetLocation(input, &replicas[r])) {
        return Status::Corruption("bad fragment location");
      }
    }
    fragments.push_back(std::move(replicas));
  }
  if (!GetVarint32(input, &nsizes)) {
    return Status::Corruption("bad fragment sizes");
  }
  fragment_sizes.assign(nsizes, 0);
  for (uint32_t i = 0; i < nsizes; i++) {
    if (!GetVarint64(input, &fragment_sizes[i])) {
      return Status::Corruption("bad fragment size");
    }
  }
  if (!GetVarint32(input, &nmeta)) {
    return Status::Corruption("bad meta replicas");
  }
  meta_replicas.assign(nmeta, BlockLocation());
  for (uint32_t i = 0; i < nmeta; i++) {
    if (!GetLocation(input, &meta_replicas[i])) {
      return Status::Corruption("bad meta location");
    }
  }
  if (!GetLocation(input, &parity)) {
    return Status::Corruption("bad parity location");
  }
  return Status::OK();
}

int32_t PickPieceStoc(const FileMetaData& meta, PieceKind kind, int fragment,
                      const std::vector<int32_t>& order) {
  // held[i]: pieces of the SSTable on order[i]; copy[i]: one of them is a
  // copy of the piece's bytes.
  std::vector<int> held(order.size(), 0);
  std::vector<bool> copy(order.size(), false);
  ForEachPiece(meta, [&](PieceKind k, int f, const BlockLocation& loc) {
    auto it = std::find(order.begin(), order.end(), loc.stoc_id);
    if (it == order.end()) {
      return;
    }
    size_t i = it - order.begin();
    held[i]++;
    if ((k == kind && f == fragment) ||
        (kind == PieceKind::kParity && k == PieceKind::kFragment)) {
      copy[i] = true;
    }
  });
  auto fewest = [&](auto&& allowed) {
    int best = -1;
    for (int i = 0; i < static_cast<int>(order.size()); i++) {
      if (allowed(i) && (best < 0 || held[i] < held[best])) {
        best = i;
      }
    }
    return best;
  };
  int best = fewest([&](int i) { return !copy[i]; });
  if (best < 0 && kind == PieceKind::kParity) {
    best = fewest([&](int i) { return order[i] != meta.parity.stoc_id; });
  }
  return best < 0 ? -1 : order[best];
}

}  // namespace lsm
}  // namespace nova
