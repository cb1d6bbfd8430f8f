#include "spans.hpp"

#include <cstdio>
#include <ostream>

namespace perfbench {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kService: return "service";
    case Layer::kSched: return "sched";
    case Layer::kStage1: return "stage1";
    case Layer::kTree: return "tree";
    case Layer::kInterval: return "interval";
    case Layer::kOther: return "other";
    case Layer::kCount_: break;
  }
  return "?";
}

int SpanLog::open(std::string name, Layer layer, Track track, int request) {
  int parent = -1;
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (spans_[static_cast<std::size_t>(*it)].track == track) {
      parent = *it;
      break;
    }
  }
  SpanRecord s;
  s.name = std::move(name);
  s.layer = layer;
  s.track = track;
  s.parent = parent;
  s.request = request;
  s.start = now();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = now();
  // Spans close in LIFO order (they are scoped).
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanLog::add(std::string name, Layer layer, Track track, int request,
                  double start, double end) {
  SpanRecord s;
  s.name = std::move(name);
  s.layer = layer;
  s.track = track;
  s.request = request;
  s.start = start;
  s.end = end;
  spans_.push_back(std::move(s));
}

namespace {

/// Seconds of each span covered by its direct children.
std::vector<double> child_seconds(const std::vector<SpanRecord>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  return child;
}

}  // namespace

std::array<double, kNumLayers> SpanLog::self_seconds(Track track) const {
  const std::vector<double> child = child_seconds(spans_);
  std::array<double, kNumLayers> out{};
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.track != track) continue;
    out[static_cast<std::size_t>(s.layer)] += (s.end - s.start) - child[i];
  }
  return out;
}

double SpanLog::self_seconds(Track track, const std::string& name) const {
  const std::vector<double> child = child_seconds(spans_);
  double out = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.track == track && s.name == name) {
      out += (s.end - s.start) - child[i];
    }
  }
  return out;
}

namespace {

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
}

const char* track_name(int tid) {
  switch (tid) {
    case static_cast<int>(Track::kPoolService): return "pool-thread service";
    case static_cast<int>(Track::kSched): return "scheduler runs";
    case static_cast<int>(Track::kReplay): return "traced replay";
    case static_cast<int>(Track::kOneThreadService):
      return "1-thread service";
    default: return nullptr;
  }
}

}  // namespace

void SpanLog::write_chrome_trace(
    std::ostream& os,
    const std::vector<std::pair<std::string, std::string>>& metadata) const {
  os << "{\"displayTimeUnit\":\"ms\",\"metadata\":{";
  for (std::size_t i = 0; i < metadata.size(); ++i) {
    if (i) os << ',';
    write_json_string(os, metadata[i].first);
    os << ':';
    write_json_string(os, metadata[i].second);
  }
  os << "},\"traceEvents\":[\n";
  std::vector<int> tids;
  for (const SpanRecord& s : spans_) {
    const int tid = static_cast<int>(s.track);
    bool seen = false;
    for (int t : tids) seen = seen || t == tid;
    if (!seen) tids.push_back(tid);
  }
  bool first = true;
  for (int tid : tids) {
    const char* name = track_name(tid);
    const std::string label =
        name ? name
             : "worker " + std::to_string(
                               tid - static_cast<int>(Track::kWorkers));
    os << (first ? "" : ",\n")
       << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":";
    write_json_string(os, label);
    os << "}}";
    first = false;
  }
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    os << (first ? "" : ",\n") << "{\"ph\":\"X\",\"pid\":1,\"tid\":"
       << static_cast<int>(s.track) << ",\"name\":";
    write_json_string(os, s.name);
    os << ",\"cat\":\"" << layer_name(s.layer) << '"';
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f",
                  s.start * 1e6, (s.end - s.start) * 1e6);
    os << buf << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
       << ",\"request\":" << s.request << "}}";
    first = false;
  }
  os << "\n]}\n";
}

}  // namespace perfbench
