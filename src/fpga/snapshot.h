// Golden-configuration snapshot: everything the batch devices
// (fpga/batch_device.h) precompute once per victim so that configuring a
// *patched* bitstream costs O(diff) instead of O(sites).  The scalar
// fpga::Device takes none of this: it full-parses every bitstream.
//
// The snapshot records the golden bytes, the same bytes with the CRC check
// disabled (the template every kDisable-mode probe is derived from), an
// owner map telling which LUT site (or the key region) each frame-data byte
// belongs to, the compiled bit-sliced evaluation tape shared by every
// BatchLutSimulator, and a small cache of *parent images*: fully decoded
// configurations (frame bytes, per-LUT functions, lane-transposed tables,
// key) that candidates are diffed against.  The golden configuration is
// parent 0 and is never evicted; the others are promoted from candidates.
//
// Fast-path invariant (diff_against): a candidate bitstream is
// diff-configurable iff it has the golden length and its bytes outside the
// frame-data region equal one of the two templates byte-for-byte —
//   * the CRC-disabled template: the packet stream parses exactly like the
//     golden one and accepts any frame-data contents; or
//   * the pristine golden template with frame data untouched as well (the
//     candidate IS the golden bitstream).
// Either way the full parser would accept it and hand the decoder its frame
// bytes, so its configuration is a pure function of those bytes.  Each
// site's function depends only on the bytes the owner map gives that site
// (likewise the key), and equal bytes decode to equal functions.  So the
// candidate's configuration is any parent's configuration with exactly the
// sites (and key) whose owned bytes differ from that parent re-decoded —
// provided the parent's own configuration is what the full parser yields
// for the parent's bytes.  That holds by induction: golden is decoded from
// a full read of every site, and an image becomes a parent only when it
// matches the CRC-disabled template and was itself configured by this diff
// against an existing parent.
// Everything else — truncation, header edits, recomputed CRCs, frame edits
// under an armed CRC — falls back to the full parser so rejection behavior
// and error strings stay identical to fpga::Device's.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bitstream/assembler.h"
#include "bitstream/parser.h"
#include "bitstream/patcher.h"
#include "mapper/batch_lut_sim.h"
#include "mapper/packing.h"
#include "netlist/snow3g_design.h"
#include "snow3g/snow3g.h"

namespace sbm::fpga {

/// A configuration candidates can be diffed against (see the invariant).
struct ParentImage {
  std::vector<u8> frames;  // frame-data bytes: image[fdri, fdri + frame_len)
  std::vector<logic::TruthTable6> functions;  // per mapped LUT, decoded from `frames`
  std::vector<u64> tables;  // tape->transpose_tables(functions)
  snow3g::Key key{};
};

/// Batch-device configure work done through one snapshot (the scalar
/// fpga::Device counts none).  Exact in a serial run; under a pool the
/// parent a chunk finds may depend on scheduling, so the totals may too
/// (the configurations they produce do not).
struct ConfigureStats {
  u64 sites_decoded = 0;      // LUT sites whose INIT was read and decoded
  u64 parent_promotions = 0;  // candidates cached as new parents
  u64 parent_hits = 0;        // template-matched lookups that found a parent
};

struct DeviceSnapshot {
  static constexpr int kOwnerInert = -1;  // padding/HCLK byte: decode ignores it
  static constexpr int kOwnerKey = -2;    // embedded-key byte
  /// Parents kept, golden included.  A feedback search rewrites one base
  /// image at a time, so a handful covers every base in flight.
  static constexpr size_t kParentCapacity = 8;
  /// A template-matched candidate further than this many differing 8-byte
  /// frame words from every parent becomes a parent itself.  One rewritten
  /// site spans 4-8 words; the ~272-site beta patch spans over a thousand.
  static constexpr size_t kPromoteWords = 64;

  std::vector<u8> golden;        // assembled bytes, CRC intact
  std::vector<u8> golden_nocrc;  // golden with bitstream::disable_crc applied
  bool has_nocrc_template = false;
  u64 outside_hash_golden = 0;  // hash of the bytes outside the frame region
  u64 outside_hash_nocrc = 0;
  size_t fdri = 0;       // first frame-data byte
  size_t frame_len = 0;  // frame-data bytes covered by the owner map

  std::vector<int> owner;                      // frame byte -> site / key / inert
  std::vector<size_t> site_l;                  // absolute byte index per site
  std::vector<std::array<u8, 4>> site_order;   // chunk order per site
  size_t key_l = 0;                            // absolute byte index of the key

  std::shared_ptr<const mapper::BatchLutTape> tape;
  std::shared_ptr<const ParentImage> golden_parent;  // parent 0

  /// The parent to configure `bytes` against: for a candidate matching the
  /// CRC-disabled template, the cached parent with the fewest differing
  /// frame words, or the candidate itself promoted to a parent when none is
  /// within kPromoteWords; golden for anything else.  Thread-safe.
  std::shared_ptr<const ParentImage> base_for(const mapper::PlacedDesign& placed,
                                              std::span<const u8> bytes) const;

  ConfigureStats stats() const;
  /// Adds to sites_decoded (diff_against does; so does BatchDeviceT's
  /// full-parse fallback).
  void note_sites_decoded(size_t sites) const;

 private:
  struct Cached {
    std::shared_ptr<const ParentImage> image;
    u64 last_use = 0;
  };
  mutable std::mutex mu_;
  mutable std::vector<Cached> parents_;  // [0] is golden_parent once filled
  mutable u64 clock_ = 0;
  mutable std::atomic<u64> sites_decoded_{0};
  mutable std::atomic<u64> promotions_{0};
  mutable std::atomic<u64> hits_{0};
};

/// One candidate's difference from a parent configuration.
struct FrameDiff {
  std::vector<std::pair<size_t, u64>> sites;  // (site index, candidate INIT)
  snow3g::Key key{};  // candidate key (the parent's when its key bytes match)
};

std::shared_ptr<const DeviceSnapshot> build_snapshot(const netlist::Snow3gDesign& design,
                                                     const mapper::PlacedDesign& placed,
                                                     const bitstream::Layout& layout,
                                                     std::span<const u8> golden);

/// Returns the candidate's frame diff against `parent` when the fast path
/// applies (see the invariant above), nullopt when the caller must run the
/// full parser.  Counts the sites it reads in the snapshot's stats.
std::optional<FrameDiff> diff_against(const DeviceSnapshot& snapshot, const ParentImage& parent,
                                      std::span<const u8> bytes);

/// Calls f(lut_index, function) for each mapped LUT packed into `site`,
/// decoded from the site's INIT.
template <class F>
void for_each_site_lut(const mapper::PlacedDesign& placed, size_t site, u64 init, F&& f) {
  const mapper::PhysicalLut& p = placed.phys[site];
  if (p.o6_lut >= 0) f(static_cast<size_t>(p.o6_lut), placed.function_from_init(site, false, init));
  if (p.o5_lut >= 0) f(static_cast<size_t>(p.o5_lut), placed.function_from_init(site, true, init));
}

/// The full configuration decode — what the device's configuration logic
/// does with a bitstream: parse it (packets, IDCODE, CRC), check the frame
/// data covers the device geometry, read every site's INIT out of its
/// sub-vectors and call f(lut_index, function) for each mapped LUT, then
/// load the embedded key into `key`.  Returns the rejection reason (what
/// Device::error() reports), empty on success; on rejection neither f nor
/// `key` is touched.
template <class F>
std::string decode_configuration(const mapper::PlacedDesign& placed,
                                 const bitstream::Layout& layout, std::span<const u8> bytes,
                                 snow3g::Key& key, F&& f) {
  const bitstream::ParseResult parsed = bitstream::parse_bitstream(bytes);
  if (!parsed.ok) return parsed.error;
  if (parsed.frame_data.size() < layout.frame_count * bitstream::kFrameBytes) {
    return "frame data too short for device geometry";
  }
  for (size_t site = 0; site < placed.phys.size(); ++site) {
    const size_t l = layout.site_byte_index(site) - layout.fdri_byte_offset;
    const u64 init =
        bitstream::read_lut_init(parsed.frame_data, l, bitstream::Layout::chunk_stride(),
                                 bitstream::chunk_order(placed.slice_of(site)));
    for_each_site_lut(placed, site, init, f);
  }
  const size_t key_off = layout.key_byte_index() - layout.fdri_byte_offset;
  for (size_t w = 0; w < 4; ++w) key[w] = load_be32(parsed.frame_data.data() + key_off + 4 * w);
  return {};
}

}  // namespace sbm::fpga
