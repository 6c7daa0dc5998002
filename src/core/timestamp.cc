#include "core/timestamp.h"

#include <algorithm>

#include "common/check.h"
#include "common/strings.h"

namespace lazyrep::core {

const TsTuple& Timestamp::OwnTuple() const {
  LAZYREP_CHECK(!tuples_.empty());
  return tuples_.back();
}

void Timestamp::BumpOwnLts() {
  LAZYREP_CHECK(!tuples_.empty());
  ++tuples_.back().lts;
}

Timestamp Timestamp::ExtendedWith(SiteId site, int64_t lts,
                                  int64_t epoch) const {
  Timestamp out = *this;
  if (!out.tuples_.empty()) {
    LAZYREP_CHECK_LT(out.tuples_.back().site, site)
        << "concatenated tuple must belong to a later site in the total "
           "order (DAG ancestors precede descendants)";
  }
  out.tuples_.push_back({site, lts});
  out.epoch_ = epoch;
  return out;
}

Timestamp Timestamp::Suffix(size_t from) const {
  LAZYREP_CHECK_LE(from, tuples_.size());
  Timestamp out;
  for (size_t i = from; i < tuples_.size(); ++i) {
    out.tuples_.push_back(tuples_[i]);
  }
  out.epoch_ = epoch_;
  return out;
}

size_t Timestamp::SharedPrefix(const Timestamp& a, const Timestamp& b) {
  size_t n = std::min(a.tuples_.size(), b.tuples_.size());
  size_t i = 0;
  while (i < n && a.tuples_[i] == b.tuples_[i]) ++i;
  return i;
}

Timestamp Timestamp::Rebuild(const Timestamp& prev, size_t shared,
                             const Timestamp& suffix) {
  LAZYREP_CHECK_LE(shared, prev.tuples_.size())
      << "shared prefix longer than the channel's previous timestamp";
  Timestamp out;
  for (size_t i = 0; i < shared; ++i) out.tuples_.push_back(prev.tuples_[i]);
  for (const TsTuple& t : suffix.tuples_) {
    if (!out.tuples_.empty()) {
      LAZYREP_CHECK_LT(out.tuples_.back().site, t.site)
          << "rebuilt timestamp must stay sorted by site";
    }
    out.tuples_.push_back(t);
  }
  out.epoch_ = suffix.epoch_;
  return out;
}

int Timestamp::Compare(const Timestamp& a, const Timestamp& b) {
  if (a.epoch_ != b.epoch_) return a.epoch_ < b.epoch_ ? -1 : 1;
  size_t n = std::min(a.tuples_.size(), b.tuples_.size());
  for (size_t i = 0; i < n; ++i) {
    const TsTuple& ta = a.tuples_[i];
    const TsTuple& tb = b.tuples_[i];
    if (ta.site != tb.site) {
      // Definition 3.3: reverse ordering on sites at the first difference —
      // the timestamp carrying the LARGER site id is SMALLER.
      return ta.site > tb.site ? -1 : 1;
    }
    if (ta.lts != tb.lts) return ta.lts < tb.lts ? -1 : 1;
  }
  if (a.tuples_.size() == b.tuples_.size()) return 0;
  // Prefix rule: the prefix is smaller.
  return a.tuples_.size() < b.tuples_.size() ? -1 : 1;
}

std::string Timestamp::ToString() const {
  std::string out = StrPrintf("e%lld:", static_cast<long long>(epoch_));
  for (const TsTuple& t : tuples_) {
    out += StrPrintf("(s%d,%lld)", t.site, static_cast<long long>(t.lts));
  }
  return out;
}

}  // namespace lazyrep::core
