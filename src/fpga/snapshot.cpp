#include "fpga/snapshot.h"

#include <cstring>
#include <limits>
#include <stdexcept>

#include "obs/metrics.h"

namespace sbm::fpga {

namespace {

/// FNV-1a over the bytes outside [fdri, fdri + frame_len): the hash guard
/// that lets the template check skip the byte-wise compare for bitstreams
/// that obviously do not match.
u64 outside_hash(std::span<const u8> bytes, size_t fdri, size_t frame_len) {
  u64 h = 0xcbf29ce484222325ull;
  auto feed = [&h](const u8* p, size_t n) {
    for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  };
  feed(bytes.data(), fdri);
  feed(bytes.data() + fdri + frame_len, bytes.size() - fdri - frame_len);
  return h;
}

bool outside_equal(std::span<const u8> bytes, const std::vector<u8>& tmpl, size_t fdri,
                   size_t frame_len) {
  return std::memcmp(bytes.data(), tmpl.data(), fdri) == 0 &&
         std::memcmp(bytes.data() + fdri + frame_len, tmpl.data() + fdri + frame_len,
                     bytes.size() - fdri - frame_len) == 0;
}

enum class Template { kNone, kNoCrc, kGolden };

/// Which fast-path template `bytes` matches (see the invariant in the header).
Template match_template(const DeviceSnapshot& s, std::span<const u8> bytes) {
  if (s.frame_len == 0 || bytes.size() != s.golden.size()) return Template::kNone;
  const u64 h = outside_hash(bytes, s.fdri, s.frame_len);
  if (s.has_nocrc_template && h == s.outside_hash_nocrc &&
      outside_equal(bytes, s.golden_nocrc, s.fdri, s.frame_len)) {
    return Template::kNoCrc;
  }
  // Pristine-golden fast path: only if the frame data is untouched too; any
  // modification under an armed CRC must go through the real parser so the
  // rejection (and its error string) is authentic.
  if (h == s.outside_hash_golden && outside_equal(bytes, s.golden, s.fdri, s.frame_len) &&
      std::memcmp(bytes.data() + s.fdri, s.golden.data() + s.fdri, s.frame_len) == 0) {
    return Template::kGolden;
  }
  return Template::kNone;
}

/// Differing 8-byte words between two frame regions (a ragged tail counts
/// as one word), counting stops at `bound`.
size_t frame_distance(const u8* a, const u8* b, size_t len, size_t bound) {
  size_t words = 0;
  size_t i = 0;
  for (; i + 8 <= len && words < bound; i += 8) words += std::memcmp(a + i, b + i, 8) != 0;
  if (i < len && words < bound) words += std::memcmp(a + i, b + i, len - i) != 0;
  return words;
}

/// Overwrites one LUT's function and its lane-transposed table words.
void set_parent_lut(const mapper::BatchLutTape& tape, ParentImage& img, size_t lut,
                    const logic::TruthTable6& f) {
  img.functions[lut] = f;
  u64* t = &img.tables[tape.table_offset(lut)];
  const unsigned n = 1u << tape.table_log2(lut);
  for (unsigned m = 0; m < n; ++m) t[m] = ((f.bits() >> m) & 1) ? ~u64{0} : 0;
}

}  // namespace

std::shared_ptr<const DeviceSnapshot> build_snapshot(const netlist::Snow3gDesign& design,
                                                     const mapper::PlacedDesign& placed,
                                                     const bitstream::Layout& layout,
                                                     std::span<const u8> golden) {
  auto snap = std::make_shared<DeviceSnapshot>();
  snap->golden.assign(golden.begin(), golden.end());
  snap->golden_nocrc = snap->golden;
  bitstream::disable_crc(snap->golden_nocrc);
  snap->has_nocrc_template = snap->golden_nocrc != snap->golden;
  snap->fdri = layout.fdri_byte_offset;
  snap->frame_len = layout.frame_count * bitstream::kFrameBytes;
  if (snap->fdri + snap->frame_len > snap->golden.size()) {
    // Degenerate geometry (should not happen for assembled systems): leave
    // the snapshot without fast-path data; diff_against will refuse.
    snap->frame_len = 0;
    snap->fdri = 0;
    snap->has_nocrc_template = false;
  }
  snap->outside_hash_golden = outside_hash(snap->golden, snap->fdri, snap->frame_len);
  snap->outside_hash_nocrc = outside_hash(snap->golden_nocrc, snap->fdri, snap->frame_len);

  // Owner map + per-site geometry.
  snap->owner.assign(snap->frame_len, DeviceSnapshot::kOwnerInert);
  snap->site_l.resize(placed.phys.size());
  snap->site_order.resize(placed.phys.size());
  for (size_t site = 0; site < placed.phys.size(); ++site) {
    const size_t l = layout.site_byte_index(site);
    snap->site_l[site] = l;
    snap->site_order[site] = bitstream::chunk_order(placed.slice_of(site));
    for (unsigned c = 0; c < bitstream::kSubVectors; ++c) {
      for (unsigned b = 0; b < bitstream::kChunkBytes; ++b) {
        const size_t idx = l - snap->fdri + c * bitstream::Layout::chunk_stride() + b;
        if (idx < snap->owner.size()) snap->owner[idx] = static_cast<int>(site);
      }
    }
  }
  snap->key_l = layout.key_byte_index();
  for (size_t b = 0; b < 16; ++b) {
    const size_t idx = snap->key_l - snap->fdri + b;
    if (idx < snap->owner.size()) snap->owner[idx] = DeviceSnapshot::kOwnerKey;
  }

  // Golden decode (parent 0): the device's own full decode, run once here so
  // every probe starts from this configuration.
  auto gold = std::make_shared<ParentImage>();
  const u8* golden_frames = snap->golden.data() + snap->fdri;
  gold->frames.assign(golden_frames, golden_frames + snap->frame_len);
  gold->functions.resize(placed.mapped.lut_count());
  const std::string error = decode_configuration(
      placed, layout, snap->golden, gold->key,
      [&](size_t lut, const logic::TruthTable6& f) { gold->functions[lut] = f; });
  if (!error.empty()) throw std::invalid_argument("golden bitstream rejected: " + error);

  // Compiled evaluation tape + lane-transposed golden tables.  Forcing the
  // topo-order cache here keeps later concurrent simulator construction
  // read-only on the Network.
  design.net.topo_order();
  snap->tape = std::make_shared<const mapper::BatchLutTape>(design.net, placed.mapped);
  gold->tables = snap->tape->transpose_tables(gold->functions);
  snap->golden_parent = std::move(gold);
  return snap;
}

std::optional<FrameDiff> diff_against(const DeviceSnapshot& s, const ParentImage& parent,
                                      std::span<const u8> bytes) {
  if (match_template(s, bytes) == Template::kNone) return std::nullopt;
  const u8* cf = bytes.data() + s.fdri;
  const u8* pf = parent.frames.data();

  FrameDiff d;
  bool key_changed = false;
  std::vector<char> seen(s.site_l.size(), 0);
  auto diff_byte = [&](size_t i) {
    if (cf[i] == pf[i]) return;
    const int o = s.owner[i];
    if (o == DeviceSnapshot::kOwnerKey) {
      key_changed = true;
    } else if (o >= 0 && !seen[static_cast<size_t>(o)]) {
      seen[static_cast<size_t>(o)] = 1;
      d.sites.emplace_back(static_cast<size_t>(o), 0);
    }
    // kOwnerInert bytes are padding the decode never reads; ignore them the
    // way the full re-decode does.
  };
  size_t i = 0;
  for (; i + 8 <= s.frame_len; i += 8) {
    if (std::memcmp(cf + i, pf + i, 8) == 0) continue;
    for (size_t j = i; j < i + 8; ++j) diff_byte(j);
  }
  for (; i < s.frame_len; ++i) diff_byte(i);

  for (auto& [site, init] : d.sites) {
    init = bitstream::read_lut_init(bytes, s.site_l[site], bitstream::Layout::chunk_stride(),
                                    s.site_order[site]);
  }
  s.note_sites_decoded(d.sites.size());
  if (key_changed) {
    for (size_t w = 0; w < 4; ++w) d.key[w] = load_be32(bytes.data() + s.key_l + 4 * w);
  } else {
    d.key = parent.key;
  }
  return d;
}

std::shared_ptr<const ParentImage> DeviceSnapshot::base_for(const mapper::PlacedDesign& placed,
                                                            std::span<const u8> bytes) const {
  if (match_template(*this, bytes) != Template::kNoCrc) return golden_parent;
  static obs::Counter& c_hits = obs::MetricsRegistry::global().counter("fpga.parent_hits");
  static obs::Counter& c_promotions =
      obs::MetricsRegistry::global().counter("fpga.parent_promotions");
  const u8* cf = bytes.data() + fdri;

  std::shared_ptr<const ParentImage> closest;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (parents_.empty()) parents_.push_back({golden_parent, 0});
    size_t best = 0;
    size_t best_words = std::numeric_limits<size_t>::max();
    for (size_t i = 0; i < parents_.size(); ++i) {
      const size_t words =
          frame_distance(cf, parents_[i].image->frames.data(), frame_len, best_words);
      if (words < best_words) {
        best = i;
        best_words = words;
      }
    }
    closest = parents_[best].image;
    if (best_words <= kPromoteWords) {
      parents_[best].last_use = ++clock_;
      hits_.fetch_add(1, std::memory_order_relaxed);
      c_hits.add();
      return closest;
    }
  }

  // Promote: configure the candidate against its closest parent (outside
  // the lock — the parent is immutable) and cache the result.
  const std::optional<FrameDiff> diff = diff_against(*this, *closest, bytes);
  auto img = std::make_shared<ParentImage>();
  img->frames.assign(cf, cf + frame_len);
  img->functions = closest->functions;
  img->tables = closest->tables;
  for (const auto& [site, init] : diff->sites) {
    for_each_site_lut(placed, site, init, [&](size_t lut, const logic::TruthTable6& f) {
      set_parent_lut(*tape, *img, lut, f);
    });
  }
  img->key = diff->key;
  promotions_.fetch_add(1, std::memory_order_relaxed);
  c_promotions.add();

  std::lock_guard<std::mutex> lock(mu_);
  if (parents_.size() < kParentCapacity) {
    parents_.push_back({img, ++clock_});
  } else {
    size_t victim = 1;  // golden (slot 0) is never evicted
    for (size_t i = 2; i < parents_.size(); ++i) {
      if (parents_[i].last_use < parents_[victim].last_use) victim = i;
    }
    parents_[victim] = {img, ++clock_};
  }
  return img;
}

void DeviceSnapshot::note_sites_decoded(size_t sites) const {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("fpga.sites_decoded");
  sites_decoded_.fetch_add(sites, std::memory_order_relaxed);
  c.add(sites);
}

ConfigureStats DeviceSnapshot::stats() const {
  return {sites_decoded_.load(std::memory_order_relaxed),
          promotions_.load(std::memory_order_relaxed), hits_.load(std::memory_order_relaxed)};
}

}  // namespace sbm::fpga
