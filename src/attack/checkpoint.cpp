// JSON round-trip for AttackCheckpoint: the artifact a partial attack leaves
// behind (DESIGN.md §4f).  The schema is versioned so stale files from an
// older layout are rejected instead of half-parsed.
#include "attack/pipeline.h"

#include <span>

#include "common/json.h"

namespace sbm::attack {

namespace {

// v2: adds "probes" — the run's settled probe outcomes
// (AttackCheckpoint::SavedProbe), so resume never re-pays them.
constexpr u64 kCheckpointVersion = 2;

void write_u8_array(JsonWriter& w, const std::string& name, std::span<const u8> values) {
  w.key(name).begin_array();
  for (const u8 v : values) w.value(u64{v});
  w.end_array();
}

/// Reads a fixed-size byte array member; false on absence/shape mismatch.
template <size_t N>
bool read_u8_array(const JsonValue& obj, std::string_view name, std::array<u8, N>& out) {
  const JsonValue* a = obj.find(name);
  if (a == nullptr || !a->is_array() || a->items.size() != N) return false;
  for (size_t i = 0; i < N; ++i) out[i] = static_cast<u8>(a->items[i].as_u64());
  return true;
}

}  // namespace

std::string AttackCheckpoint::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.field("version", kCheckpointVersion);
  w.field("phase", phase);
  w.key("completed").begin_array();
  for (const std::string& p : completed) w.value(p);
  w.end_array();
  w.field("load_active_high", load_active_high);

  w.key("lut1").begin_array();
  for (const ZPathLut& z : lut1) {
    w.begin_object();
    w.field("byte_index", static_cast<u64>(z.match.byte_index));
    w.field("table", z.match.matched_table.bits());
    write_u8_array(w, "perm", z.match.perm);
    write_u8_array(w, "order", z.match.order);
    w.field("bit", u64{z.bit});
    write_u8_array(w, "trio", z.trio);
    w.field("s0_var", z.s0_var);
    w.end_object();
  }
  w.end_array();

  w.key("beta").begin_array();
  for (const BetaPatch& b : beta) {
    w.begin_object();
    w.field("byte_index", static_cast<u64>(b.byte_index));
    write_u8_array(w, "order", b.order);
    w.field("init", b.init);
    w.end_object();
  }
  w.end_array();

  w.key("feedback").begin_array();
  for (const FeedbackLut& f : feedback) {
    w.begin_object();
    w.field("byte_index", static_cast<u64>(f.byte_index));
    write_u8_array(w, "order", f.order);
    w.field("half", f.half);
    w.field("zero_all", f.zero_all);
    write_u8_array(w, "zero_vars", f.zero_vars);
    w.field("bit", u64{f.bit});
    w.end_object();
  }
  w.end_array();

  w.key("probes").begin_array();
  for (const SavedProbe& p : probes) {
    w.begin_object();
    w.field("key_hi", p.key_hi);
    w.field("key_lo", p.key_lo);
    w.field("words", p.words);
    w.field("rejected", p.rejected);
    w.key("keystream").begin_array();
    for (const u32 word : p.keystream) w.value(u64{word});
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.end_object();
  return w.str();
}

std::optional<AttackCheckpoint> AttackCheckpoint::from_json(std::string_view json) {
  const std::optional<JsonValue> doc = parse_json(json);
  if (!doc || !doc->is_object()) return std::nullopt;
  const JsonValue* version = doc->find("version");
  if (version == nullptr || version->as_u64() != kCheckpointVersion) return std::nullopt;

  AttackCheckpoint cp;
  if (const JsonValue* v = doc->find("phase")) cp.phase = v->as_string();
  if (const JsonValue* v = doc->find("completed"); v != nullptr && v->is_array()) {
    for (const JsonValue& item : v->items) cp.completed.push_back(item.as_string());
  }
  if (const JsonValue* v = doc->find("load_active_high")) {
    cp.load_active_high = v->as_bool(true);
  }

  const JsonValue* lut1 = doc->find("lut1");
  const JsonValue* beta = doc->find("beta");
  const JsonValue* feedback = doc->find("feedback");
  if (lut1 == nullptr || !lut1->is_array() || beta == nullptr || !beta->is_array() ||
      feedback == nullptr || !feedback->is_array()) {
    return std::nullopt;
  }

  for (const JsonValue& item : lut1->items) {
    if (!item.is_object()) return std::nullopt;
    ZPathLut z;
    const JsonValue* bi = item.find("byte_index");
    const JsonValue* table = item.find("table");
    const JsonValue* bit = item.find("bit");
    const JsonValue* s0 = item.find("s0_var");
    if (bi == nullptr || table == nullptr || bit == nullptr || s0 == nullptr) {
      return std::nullopt;
    }
    z.match.byte_index = static_cast<size_t>(bi->as_u64());
    z.match.matched_table = logic::TruthTable6(table->as_u64());
    if (!read_u8_array(item, "perm", z.match.perm)) return std::nullopt;
    if (!read_u8_array(item, "order", z.match.order)) return std::nullopt;
    z.bit = static_cast<unsigned>(bit->as_u64());
    if (!read_u8_array(item, "trio", z.trio)) return std::nullopt;
    z.s0_var = static_cast<int>(s0->as_double(-1));
    cp.lut1.push_back(std::move(z));
  }

  for (const JsonValue& item : beta->items) {
    if (!item.is_object()) return std::nullopt;
    BetaPatch b;
    const JsonValue* bi = item.find("byte_index");
    const JsonValue* init = item.find("init");
    if (bi == nullptr || init == nullptr) return std::nullopt;
    b.byte_index = static_cast<size_t>(bi->as_u64());
    if (!read_u8_array(item, "order", b.order)) return std::nullopt;
    b.init = init->as_u64();
    cp.beta.push_back(b);
  }

  for (const JsonValue& item : feedback->items) {
    if (!item.is_object()) return std::nullopt;
    FeedbackLut f;
    const JsonValue* bi = item.find("byte_index");
    const JsonValue* half = item.find("half");
    const JsonValue* zero_all = item.find("zero_all");
    const JsonValue* zero_vars = item.find("zero_vars");
    const JsonValue* bit = item.find("bit");
    if (bi == nullptr || half == nullptr || zero_all == nullptr || zero_vars == nullptr ||
        !zero_vars->is_array() || bit == nullptr) {
      return std::nullopt;
    }
    f.byte_index = static_cast<size_t>(bi->as_u64());
    if (!read_u8_array(item, "order", f.order)) return std::nullopt;
    f.half = static_cast<int>(half->as_double(-1));
    f.zero_all = zero_all->as_bool();
    for (const JsonValue& zv : zero_vars->items) {
      f.zero_vars.push_back(static_cast<u8>(zv.as_u64()));
    }
    f.bit = static_cast<unsigned>(bit->as_u64());
    cp.feedback.push_back(std::move(f));
  }

  if (const JsonValue* probes = doc->find("probes")) {
    if (!probes->is_array()) return std::nullopt;
    for (const JsonValue& item : probes->items) {
      if (!item.is_object()) return std::nullopt;
      SavedProbe p;
      const JsonValue* hi = item.find("key_hi");
      const JsonValue* lo = item.find("key_lo");
      const JsonValue* words = item.find("words");
      const JsonValue* rejected = item.find("rejected");
      const JsonValue* keystream = item.find("keystream");
      if (hi == nullptr || lo == nullptr || words == nullptr || rejected == nullptr ||
          keystream == nullptr || !keystream->is_array()) {
        return std::nullopt;
      }
      p.key_hi = hi->as_u64();
      p.key_lo = lo->as_u64();
      p.words = words->as_u64();
      p.rejected = rejected->as_bool();
      for (const JsonValue& word : keystream->items) {
        p.keystream.push_back(static_cast<u32>(word.as_u64()));
      }
      // A restored probe is served as a cache hit, so its shape must be one
      // the probe cache itself could have stored: a value of exactly `words`
      // words, or a rejection without one.
      if (p.words == 0 || p.keystream.size() != (p.rejected ? 0 : p.words)) {
        return std::nullopt;
      }
      cp.probes.push_back(std::move(p));
    }
  }

  return cp;
}

}  // namespace sbm::attack
