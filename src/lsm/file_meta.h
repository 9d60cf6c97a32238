// FileMetaData: everything an LTC must know about one SSTable — key range,
// level bookkeeping, and the *placement* of its pieces across StoCs:
// data fragments (each possibly replicated R times), replicated metadata
// blocks, and an optional parity block (paper Sections 4.4-4.5). This is
// what the MANIFEST persists.
#ifndef NOVA_LSM_FILE_META_H_
#define NOVA_LSM_FILE_META_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/dbformat.h"
#include "util/slice.h"
#include "util/status.h"

namespace nova {
namespace lsm {

/// One stored copy of a fragment / metadata / parity block.
struct BlockLocation {
  int32_t stoc_id = -1;
  uint64_t file_id = 0;

  bool valid() const { return stoc_id >= 0; }
};

struct FileMetaData {
  uint64_t number = 0;
  uint64_t data_size = 0;  // total data bytes across fragments
  InternalKey smallest;
  InternalKey largest;

  /// fragments[i] lists the R replica locations of data fragment i.
  std::vector<std::vector<BlockLocation>> fragments;
  std::vector<uint64_t> fragment_sizes;
  /// Replicated metadata block (index + bloom), small (Section 3.1).
  std::vector<BlockLocation> meta_replicas;
  /// Parity over the data fragments (Hybrid availability); invalid if off.
  BlockLocation parity;

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);
};

using FileMetaRef = std::shared_ptr<FileMetaData>;

/// What one stored piece of an SSTable holds.
enum class PieceKind { kFragment, kMeta, kParity };

/// The one walk over an SSTable's stored pieces: fn(kind, fragment, loc)
/// for every replica of every data fragment (fragment = its index), every
/// metadata replica, then the parity block (fragment = -1 for both).
/// Locations a failed write never filled in, and the parity when off, are
/// skipped. With a non-const meta, fn may rewrite loc.
template <typename Meta, typename Fn>
void ForEachPiece(Meta& meta, Fn&& fn) {
  for (size_t f = 0; f < meta.fragments.size(); f++) {
    for (auto& loc : meta.fragments[f]) {
      if (loc.valid()) fn(PieceKind::kFragment, static_cast<int>(f), loc);
    }
  }
  for (auto& loc : meta.meta_replicas) {
    if (loc.valid()) fn(PieceKind::kMeta, -1, loc);
  }
  if (meta.parity.valid()) fn(PieceKind::kParity, -1, meta.parity);
}

/// The one placement rule, shared by SSTable writes and repair: the StoC
/// of `order` for a piece of `meta` (kind and fragment as ForEachPiece
/// passes them). It must hold no copy of the piece's bytes: a replica of
/// the same fragment or metadata block or, for parity, the parity block
/// or any fragment it covers. Of those, the one holding the fewest pieces
/// of the SSTable wins (so one holding none, when there is one), the
/// earliest in `order` on a tie. When every StoC holds a fragment, parity
/// may share one, though never its own. The piece's current location
/// counts as a copy, so a re-homed piece always moves. Returns -1 when no
/// StoC of `order` qualifies.
int32_t PickPieceStoc(const FileMetaData& meta, PieceKind kind, int fragment,
                      const std::vector<int32_t>& order);

}  // namespace lsm
}  // namespace nova

#endif  // NOVA_LSM_FILE_META_H_
