#include "obs/chrome_trace.h"

#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <vector>

#include "common/strings.h"

namespace lazyrep::obs {
namespace {

using core::TraceEvent;

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

std::string Ts(SimTime t) {
  return StrPrintf("%.3f",
                   static_cast<double>(t) / static_cast<double>(kMicrosecond));
}

std::string TxnName(const GlobalTxnId& txn) {
  if (txn.origin_site == kInvalidSite) return "";
  return StrPrintf("s%d#%lld", txn.origin_site,
                   static_cast<long long>(txn.seq));
}

std::string Args(const TraceEvent& e) {
  std::string out = "{";
  bool first = true;
  auto add = [&out, &first](const std::string& k, const std::string& v) {
    if (!first) out += ",";
    first = false;
    out += "\"" + k + "\":" + v;
  };
  auto add_string = [&add](const std::string& k, const std::string& v) {
    std::string quoted(1, '"');
    quoted += JsonEscape(v);
    quoted += '"';
    add(k, quoted);
  };
  std::string txn = TxnName(e.txn);
  if (!txn.empty()) add_string("txn", txn);
  if (e.item != kInvalidItem) add("item", StrPrintf("%d", e.item));
  if (!e.detail.empty()) add_string("detail", e.detail);
  out += "}";
  return out;
}

std::string Instant(const TraceEvent& e) {
  return StrPrintf(
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
      "\"ts\":%s,\"pid\":%d,\"tid\":%d,\"args\":%s}",
      std::string(TraceEvent::KindName(e.kind)).c_str(),
      e.kind == TraceEvent::Kind::kMsgPost ||
              e.kind == TraceEvent::Kind::kMsgDeliver
          ? "msg"
          : "site",
      Ts(e.time).c_str(), e.site, 0, Args(e).c_str());
}

}  // namespace

void WriteChromeTrace(const core::TraceLog& trace, std::ostream& out) {
  std::vector<TraceEvent> events = trace.events();

  // (src, dst, txn-name, kind) -> indices of not-yet-matched posts, in
  // record order. Channels are FIFO, so within a key the oldest pending
  // post is the right match.
  using Key = std::tuple<SiteId, SiteId, std::string, std::string>;
  std::map<Key, std::deque<size_t>> pending;
  std::set<SiteId> sites;

  std::vector<std::string> records;
  records.reserve(events.size() + 8);
  std::vector<bool> matched(events.size(), false);

  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (e.site != kInvalidSite) sites.insert(e.site);
    switch (e.kind) {
      case TraceEvent::Kind::kMsgPost:
        pending[{e.site, e.peer, TxnName(e.txn), e.detail}].push_back(i);
        break;
      case TraceEvent::Kind::kMsgDeliver: {
        auto it = pending.find({e.peer, e.site, TxnName(e.txn), e.detail});
        if (it != pending.end() && !it->second.empty()) {
          const TraceEvent& post = events[it->second.front()];
          matched[it->second.front()] = true;
          it->second.pop_front();
          // Flight-time slice on the source process, one track per
          // destination site.
          records.push_back(StrPrintf(
              "{\"name\":\"%s\",\"cat\":\"msg\",\"ph\":\"X\",\"ts\":%s,"
              "\"dur\":%s,\"pid\":%d,\"tid\":%d,\"args\":%s}",
              JsonEscape(e.detail).c_str(), Ts(post.time).c_str(),
              Ts(e.time - post.time).c_str(), post.site, e.site,
              Args(e).c_str()));
        } else {
          // Duplicate delivery: no pending post left to pair with.
          records.push_back(Instant(e));
        }
        matched[i] = true;
        break;
      }
      case TraceEvent::Kind::kTxnCommit:
      case TraceEvent::Kind::kTxnAbort:
      case TraceEvent::Kind::kLockWait:
      case TraceEvent::Kind::kLockTimeout:
        records.push_back(Instant(e));
        matched[i] = true;
        break;
    }
  }
  // Posts that never delivered (dropped, or still in flight at the end
  // of the trace) surface as instants rather than disappearing.
  for (size_t i = 0; i < events.size(); ++i) {
    if (!matched[i]) records.push_back(Instant(events[i]));
  }
  for (SiteId site : sites) {
    records.push_back(StrPrintf(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
        "\"args\":{\"name\":\"site %d\"}}",
        site, site));
  }

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < records.size(); ++i) {
    if (i > 0) out << ",";
    out << "\n" << records[i];
  }
  out << "\n]}\n";
}

std::string ChromeTraceJson(const core::TraceLog& trace) {
  std::ostringstream out;
  WriteChromeTrace(trace, out);
  return out.str();
}

}  // namespace lazyrep::obs
