#include "attack/scan_engine.h"

#include <algorithm>
#include <map>
#include <mutex>

#include "bitstream/lut_coding.h"
#include "common/flat_map.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sbm::attack {

using bitstream::kChunkBytes;
using bitstream::kSubVectors;
using logic::TruthTable6;

PatternIndex::PatternIndex(std::span<const TruthTable6> functions, bool try_all_orders)
    : num_candidates_(functions.size()), try_all_orders_(try_all_orders) {
  if (try_all_orders_) {
    const auto& all = all_chunk_orders();
    orders_.assign(all.begin(), all.end());
  } else {
    const auto& dev = bitstream::device_chunk_orders();
    orders_.assign(dev.begin(), dev.end());
  }

  // Dedup sets hoisted out of the candidate loop: FlatMap::clear keeps the
  // capacity, so after the first candidate warms them up the 720-permutation
  // inner loops probe flat, already-sized tables with no node allocation.
  FlatMap<u64, u32, U64MixHash> seen;
  FlatMap<u64, u32, U64MixHash> image_seen;
  std::vector<std::pair<u64, u32>> distinct;  // (B, pattern index)
  for (size_t c = 0; c < functions.size(); ++c) {
    // Distinct xi-mapped patterns, first permutation wins, so each matched
    // table reports the first permutation in all_permutations6() giving it.
    seen.clear();
    distinct.clear();
    for (const auto& perm : logic::all_permutations6()) {
      const TruthTable6 t = functions[c].permuted(perm);
      const u64 b = bitstream::xi_permute(t.bits());
      const auto [slot, inserted] = seen.try_emplace(b, static_cast<u32>(patterns_.size()));
      if (!inserted) continue;
      patterns_.push_back({t, perm});
      distinct.emplace_back(b, *slot);
    }
    // One entry per distinct memory image, lowest order index wins: when two
    // (pattern, order) pairs store identically, Mark(l) keeps the earlier
    // order, as a scan trying the orders in list order would.
    image_seen.clear();
    for (u16 o = 0; o < orders_.size(); ++o) {
      for (const auto& [b, pattern] : distinct) {
        const u64 image = bitstream::storage_image(b, orders_[o]);
        if (!image_seen.try_emplace(image, 0).second) continue;
        entries_.push_back({image, pattern, static_cast<u16>(c), o});
      }
    }
  }

  // CSR bucket table over the first stored chunk.  The per-entry tail of the
  // sort key is fully determined (one pattern per (candidate, image, order)),
  // so the layout is independent of hash-map iteration order.
  std::sort(entries_.begin(), entries_.end(), [](const Entry& a, const Entry& b) {
    const u16 ba = static_cast<u16>(a.image);
    const u16 bb = static_cast<u16>(b.image);
    if (ba != bb) return ba < bb;
    if (a.candidate != b.candidate) return a.candidate < b.candidate;
    if (a.order != b.order) return a.order < b.order;
    return a.image < b.image;
  });
  bucket_start_.assign((1u << 16) + 1, 0);
  for (const Entry& e : entries_) ++bucket_start_[static_cast<u16>(e.image) + 1];
  for (size_t i = 1; i < bucket_start_.size(); ++i) bucket_start_[i] += bucket_start_[i - 1];
  // 64K-bit occupancy bitmap over the buckets.  Almost every byte position
  // lands in an empty bucket, so the hot-loop prefilter reads this 8KB
  // L1-resident bitmap instead of the 256KB CSR offset array.
  bucket_nonempty_.assign((1u << 16) / 64, 0);
  for (const Entry& e : entries_) {
    const u16 b = static_cast<u16>(e.image);
    bucket_nonempty_[b >> 6] |= u64{1} << (b & 63);
  }
}

void PatternIndex::scan(std::span<const u8> bitstream, size_t offset_d,
                        std::vector<std::vector<LutMatch>>& out) const {
  const size_t d = offset_d;
  if (bitstream.size() < (kSubVectors - 1) * d + kChunkBytes) return;
  const size_t positions = bitstream.size() - (kSubVectors - 1) * d - kChunkBytes + 1;
  const u8* bytes = bitstream.data();
  for (size_t l = 0; l < positions; ++l) {
    // Prefilter: one 16-bit load + one bitmap probe per byte position.
    const u32 first = bytes[l] | (u32{bytes[l + 1]} << 8);
    if (((bucket_nonempty_[first >> 6] >> (first & 63)) & 1) == 0) continue;
    const u32 begin = bucket_start_[first];
    const u32 end = bucket_start_[first + 1];
    if (begin == end) continue;
    // Bucket hit: gather the remaining 3 chunks once and confirm candidates
    // against the full 64-bit memory image.
    const u64 image = u64{first} |
                      (u64{bitstream::read_chunk16(bitstream, l + d)} << 16) |
                      (u64{bitstream::read_chunk16(bitstream, l + 2 * d)} << 32) |
                      (u64{bitstream::read_chunk16(bitstream, l + 3 * d)} << 48);
    for (u32 e = begin; e < end; ++e) {
      const Entry& entry = entries_[e];
      if (entry.image != image) continue;
      const Pattern& p = patterns_[entry.pattern];
      out[entry.candidate].push_back({l, p.table, p.perm, orders_[entry.order]});
      // At most one entry per candidate can match a given image (images are
      // deduped per candidate), so no Mark(l) bookkeeping is needed here.
    }
  }
}

std::vector<std::vector<LutMatch>> scan_all(std::span<const u8> bitstream,
                                            const PatternIndex& index,
                                            const FindLutOptions& options) {
  std::vector<std::vector<LutMatch>> out(index.candidates());
  const size_t d = options.offset_d;
  if (bitstream.size() < (kSubVectors - 1) * d + kChunkBytes) return out;
  const size_t positions = bitstream.size() - (kSubVectors - 1) * d - kChunkBytes + 1;

  obs::Span span("scan", "scan_all", "candidates", index.candidates(), "positions", positions);
  static obs::Counter& scanned =
      obs::MetricsRegistry::global().counter("scan.positions_scanned");
  scanned.add(positions);

  index.scan(bitstream, d, out);
  return out;
}

namespace {

struct IndexKey {
  std::vector<u64> functions;
  size_t offset_d;
  bool try_all_orders;
  bool operator<(const IndexKey& o) const {
    if (functions != o.functions) return functions < o.functions;
    if (offset_d != o.offset_d) return offset_d < o.offset_d;
    return try_all_orders < o.try_all_orders;
  }
};

std::mutex& cache_mutex() {
  static std::mutex mu;
  return mu;
}

std::map<IndexKey, std::shared_ptr<const PatternIndex>>& cache() {
  static std::map<IndexKey, std::shared_ptr<const PatternIndex>> c;
  return c;
}

}  // namespace

std::shared_ptr<const PatternIndex> shared_pattern_index(std::span<const TruthTable6> functions,
                                                         const FindLutOptions& options) {
  IndexKey key;
  key.functions.reserve(functions.size());
  for (const TruthTable6& f : functions) key.functions.push_back(f.bits());
  key.offset_d = options.offset_d;
  key.try_all_orders = options.try_all_orders;
  static obs::Counter& index_hits =
      obs::MetricsRegistry::global().counter("scan.index_cache_hits");
  static obs::Counter& index_misses =
      obs::MetricsRegistry::global().counter("scan.index_cache_misses");
  {
    std::lock_guard<std::mutex> lock(cache_mutex());
    const auto it = cache().find(key);
    if (it != cache().end()) {
      index_hits.add();
      return it->second;
    }
  }
  index_misses.add();
  // Compile outside the lock so concurrent misses on different keys don't
  // serialize; a losing racer on the same key adopts the stored index.
  std::shared_ptr<const PatternIndex> built;
  {
    obs::Span span("scan", "compile_index", "functions", functions.size());
    built = std::make_shared<const PatternIndex>(functions, options.try_all_orders);
  }
  std::lock_guard<std::mutex> lock(cache_mutex());
  return cache().try_emplace(std::move(key), std::move(built)).first->second;
}

size_t pattern_index_cache_size() {
  std::lock_guard<std::mutex> lock(cache_mutex());
  return cache().size();
}

void pattern_index_cache_clear() {
  std::lock_guard<std::mutex> lock(cache_mutex());
  cache().clear();
}

}  // namespace sbm::attack
