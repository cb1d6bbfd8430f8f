// In-memory span log for the traced pass, with Chrome trace-event export.
//
// A span is one timed call into a layer: name, layer, start, end, the span
// that caused it, and the request it served.  Spans are kept in memory and
// written out once, when the benchmark ends.  Single-threaded: spans on one
// track nest strictly, which is what self-time accounting relies on.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

enum class Layer : int {
  kService,
  kSched,
  kStage1,
  kTree,
  kInterval,
  kOther,
  kCount_
};
constexpr std::size_t kNumLayers = static_cast<std::size_t>(Layer::kCount_);
const char* layer_name(Layer l);

/// Rows of the exported trace, one per pass of the traced run.
enum class Track : int {
  kPoolService = 1,
  kSched = 2,
  kReplay = 3,
  kOneThreadService = 4,
  kWorkers = 100,  ///< + worker index: task spans of one TaskPool run
};

struct SpanRecord {
  std::string name;
  Layer layer = Layer::kOther;
  Track track = Track::kReplay;
  int parent = -1;   ///< enclosing span on the same track, or -1
  int request = -1;  ///< request id, or -1
  double start = 0;  ///< seconds since the log was created
  double end = 0;
};

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  /// Opens a span nested in the innermost open span of its track.
  int open(std::string name, Layer layer, Track track, int request);
  void close(int id);
  /// Records an already-finished span with no parent (worker task spans).
  void add(std::string name, Layer layer, Track track, int request,
           double start, double end);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Per-layer self time on one track: each span's duration minus the
  /// time its child spans cover.
  std::array<double, kNumLayers> self_seconds(Track track) const;
  /// Self time of the spans named `name` on one track.
  double self_seconds(Track track, const std::string& name) const;

  /// Chrome trace-event JSON ("X" complete events plus thread names),
  /// which Perfetto and chrome://tracing open offline.  `metadata` pairs
  /// are written into the top-level "metadata" object.
  void write_chrome_trace(
      std::ostream& os,
      const std::vector<std::pair<std::string, std::string>>& metadata) const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;  ///< open span ids, innermost last
};

/// Scoped span.
class Span {
 public:
  Span(SpanLog& log, std::string name, Layer layer, Track track, int request)
      : log_(log), id_(log.open(std::move(name), layer, track, request)) {}
  ~Span() { log_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

}  // namespace perfbench
