#include "attack/scan.h"

#include "attack/scan_engine.h"

namespace sbm::attack {

using logic::Candidate;
using logic::TargetPath;

std::vector<FamilyCount> scan_family(std::span<const u8> bitstream,
                                     const std::vector<Candidate>& family,
                                     const FindLutOptions& options) {
  std::vector<logic::TruthTable6> functions;
  functions.reserve(family.size());
  for (const Candidate& c : family) functions.push_back(c.function);
  const auto index = shared_pattern_index(functions, options);
  auto per_candidate = scan_all(bitstream, *index, options);

  std::vector<FamilyCount> out;
  out.reserve(family.size());
  for (size_t c = 0; c < family.size(); ++c) {
    out.push_back({family[c], std::move(per_candidate[c])});
  }
  return out;
}

const std::vector<Candidate>& attack_family() {
  static const std::vector<Candidate> family = [] {
    std::vector<Candidate> f = logic::table2_family();
    auto extend = [&f](std::vector<Candidate> more) {
      for (auto& c : more) {
        bool dup = false;
        for (const auto& e : f) dup = dup || e.function == c.function;
        if (!dup) f.push_back(std::move(c));  // skip duplicates of Table II
      }
    };
    // z_t path: 3-input XOR under 0..3 controls.
    for (unsigned ctrl = 0; ctrl <= 3; ++ctrl) {
      extend(logic::gated_xor_family(3, ctrl, 0, TargetPath::kKeystream));
    }
    // Feedback path: plain XORs (v merged with the adder sum), init-gated
    // XORs, and gated XORs with pass-through tree fragments.
    for (unsigned arity = 2; arity <= 4; ++arity) {
      extend(logic::gated_xor_family(arity, 0, 0, TargetPath::kFeedback));
      for (unsigned ctrl = 1; ctrl + arity <= 6; ++ctrl) {
        for (unsigned pass = 0; pass + ctrl + arity <= 6 && pass <= 2; ++pass) {
          extend(logic::gated_xor_family(arity, ctrl, pass, TargetPath::kFeedback));
        }
      }
    }
    return f;
  }();
  return family;
}

const std::vector<Candidate>& mux_scan_family() {
  static const std::vector<Candidate> family = [] {
    std::vector<Candidate> f = logic::mux_family();
    for (auto& c : logic::mux_fold_family()) f.push_back(c);
    return f;
  }();
  return family;
}

namespace {

std::vector<Candidate> filter_path(TargetPath path) {
  std::vector<Candidate> out;
  for (const Candidate& c : attack_family()) {
    if (c.path == path) out.push_back(c);
  }
  return out;
}

}  // namespace

const std::vector<Candidate>& keystream_family() {
  static const std::vector<Candidate> family = filter_path(TargetPath::kKeystream);
  return family;
}

const std::vector<Candidate>& feedback_family() {
  static const std::vector<Candidate> family = filter_path(TargetPath::kFeedback);
  return family;
}

void warm_scan_indexes(const FindLutOptions& options) {
  for (const std::vector<Candidate>* family :
       {&keystream_family(), &mux_scan_family(), &feedback_family()}) {
    std::vector<logic::TruthTable6> functions;
    functions.reserve(family->size());
    for (const Candidate& c : *family) functions.push_back(c.function);
    shared_pattern_index(functions, options);
  }
}

}  // namespace sbm::attack
