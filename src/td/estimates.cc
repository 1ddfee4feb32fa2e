#include "td/estimates.h"

#include <algorithm>

#include "common/math_util.h"

namespace tdac {

namespace {

/// Affinely rescales all entries to [0, 1]; no-op when they are all equal.
void AffineRescale(std::vector<double>* v) {
  double lo = 1e300;
  double hi = -1e300;
  for (double x : *v) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  if (hi <= lo) return;
  for (double& x : *v) x = (x - lo) / (hi - lo);
}

}  // namespace

Result<TruthDiscoveryResult> TwoEstimates::DiscoverGuarded(
    const DatasetLike& data, const RunGuard& guard) const {
  if (data.num_claims() == 0) {
    return Status::InvalidArgument("Estimates: empty dataset");
  }
  const td_internal::ConflictStore store = td_internal::GroupClaimsByItem(data);
  const size_t num_sources = store.claim_counts.size();
  const double eps_clamp = Clamp(options_.clamp_epsilon, 1e-9, 0.4);

  // The sources covering each item, ascending, each with the slot it
  // supports: the item's claims re-sorted by source. A source makes at most
  // one claim per item, so it is a positive supporter of value v exactly
  // when its slot is v.
  struct Cover {
    SourceId source;
    uint32_t slot;
  };
  std::vector<Cover> cover(store.supporters.size());
  const auto covering = [&](size_t it) {
    const size_t begin = store.slot_offsets[store.first_slot(it)];
    const size_t end = store.slot_offsets[store.end_slot(it)];
    return std::span<Cover>(cover.data() + begin, end - begin);
  };
  // Statements per source: one per value of every item it covers (its
  // positive claim plus the implicit negative claims on the others).
  std::vector<double> statements(num_sources, 0.0);
  for (size_t it = 0; it < store.num_items(); ++it) {
    for (size_t v = store.first_slot(it); v < store.end_slot(it); ++v) {
      for (uint32_t k = store.slot_offsets[v]; k < store.slot_offsets[v + 1];
           ++k) {
        cover[k] = {store.supporters[k], static_cast<uint32_t>(v)};
      }
    }
    const std::span<Cover> sources = covering(it);
    std::sort(sources.begin(), sources.end(),
              [](const Cover& a, const Cover& b) {
                return a.source < b.source;
              });
    const auto values =
        static_cast<double>(store.end_slot(it) - store.first_slot(it));
    for (const Cover& c : sources) {
      statements[static_cast<size_t>(c.source)] += values;
    }
  }

  std::vector<double> error(num_sources, 0.2);
  std::vector<double> new_error(num_sources);
  // pi[v]: current truth estimate; delta[v]: difficulty (3-Estimates only).
  std::vector<double> pi(store.num_slots(), 0.5);
  std::vector<double> delta(store.num_slots(), 0.5);

  TruthDiscoveryResult result;
  td_internal::Iterate(options_.base, guard, result, [&] {
    // Truth estimates.
    for (size_t it = 0; it < store.num_items(); ++it) {
      const std::span<const Cover> sources = covering(it);
      for (size_t v = store.first_slot(it); v < store.end_slot(it); ++v) {
        double acc = 0.0;
        const double d =
            use_difficulty() ? Clamp(delta[v], eps_clamp, 1.0) : 1.0;
        for (const Cover& c : sources) {
          double correct = Clamp(error[static_cast<size_t>(c.source)] * d,
                                 eps_clamp, 1.0 - eps_clamp);
          acc += c.slot == v ? (1.0 - correct) : correct;
        }
        pi[v] = acc / static_cast<double>(sources.size());
      }
    }
    if (options_.normalize) AffineRescale(&pi);

    // Error rates.
    std::fill(new_error.begin(), new_error.end(), 0.0);
    for (size_t it = 0; it < store.num_items(); ++it) {
      const std::span<const Cover> sources = covering(it);
      for (size_t v = store.first_slot(it); v < store.end_slot(it); ++v) {
        const double d =
            use_difficulty() ? Clamp(delta[v], eps_clamp, 1.0) : 1.0;
        for (const Cover& c : sources) {
          double wrongness = c.slot == v ? (1.0 - pi[v]) : pi[v];
          new_error[static_cast<size_t>(c.source)] += wrongness / d;
        }
      }
    }
    for (size_t s = 0; s < num_sources; ++s) {
      new_error[s] =
          statements[s] > 0.0 ? new_error[s] / statements[s] : error[s];
    }
    if (options_.normalize) AffineRescale(&new_error);
    for (double& e : new_error) e = Clamp(e, eps_clamp, 1.0 - eps_clamp);

    // Difficulty (3-Estimates).
    if (use_difficulty()) {
      for (size_t it = 0; it < store.num_items(); ++it) {
        const std::span<const Cover> sources = covering(it);
        for (size_t v = store.first_slot(it); v < store.end_slot(it); ++v) {
          double acc = 0.0;
          for (const Cover& c : sources) {
            double e = Clamp(new_error[static_cast<size_t>(c.source)],
                             eps_clamp, 1.0 - eps_clamp);
            double wrongness = c.slot == v ? (1.0 - pi[v]) : pi[v];
            acc += wrongness / e;
          }
          delta[v] = Clamp(acc / static_cast<double>(sources.size()),
                           eps_clamp, 1.0);
        }
      }
    }

    // Non-finite: keep the last finite error vector; pi is re-derived from
    // it.
    if (!AllFinite(new_error) || !AllFinite(pi)) {
      return td_internal::Step::kNonFinite;
    }
    const double change = td_internal::MeanAbsDelta(error, new_error);
    error.swap(new_error);
    return td_internal::SettledIf(change <
                                  options_.base.convergence_threshold);
  });

  td_internal::RecordElection(store, pi, result, [&](size_t, size_t slot) {
    return Clamp(pi[slot], 0.0, 1.0);
  });
  result.source_trust.resize(num_sources);
  for (size_t s = 0; s < num_sources; ++s) {
    result.source_trust[s] = 1.0 - error[s];
  }
  return result;
}

}  // namespace tdac
