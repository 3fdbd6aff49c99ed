#include "src/sim/trace.h"

#include <fstream>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "src/obs/span.h"
#include "src/util/logging.h"

namespace t10 {
namespace {

// Minimal JSON string escaping (names are op identifiers, but be safe).
std::string Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

void TraceWriter::Add(const std::string& name, const std::string& lane, double start_seconds,
                      double duration_seconds) {
  T10_CHECK_GE(start_seconds, 0.0);
  T10_CHECK_GE(duration_seconds, 0.0);
  TraceSpan span;
  span.name = name;
  span.lane = lane;
  span.start_seconds = start_seconds;
  span.duration_seconds = duration_seconds;
  spans_.push_back(std::move(span));
}

void TraceWriter::AddSpan(TraceSpan span) {
  T10_CHECK_GE(span.start_seconds, 0.0);
  T10_CHECK_GE(span.duration_seconds, 0.0);
  spans_.push_back(std::move(span));
}

void TraceWriter::AddCounter(const std::string& track, double time_seconds, double value) {
  T10_CHECK_GE(time_seconds, 0.0);
  counters_.push_back(TraceCounterSample{track, time_seconds, value});
}

std::string TraceWriter::ToJson() const {
  // Stable lane -> tid mapping in first-seen order. The keys view the spans'
  // lane strings, which outlive this call.
  std::vector<std::string_view> lanes;
  std::unordered_map<std::string_view, std::size_t> tid_by_lane;
  auto tid_of = [&](const std::string& lane) {
    const auto [it, inserted] = tid_by_lane.emplace(lane, lanes.size());
    if (inserted) {
      lanes.push_back(lane);
    }
    return it->second;
  };

  std::vector<std::string> events;
  events.reserve(spans_.size() + counters_.size());
  for (const TraceSpan& span : spans_) {
    const std::size_t tid = tid_of(span.lane);
    std::ostringstream e;
    e << "{\"name\": \"" << Escape(span.name) << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << tid
      << ", \"ts\": " << span.start_seconds * 1e6 << ", \"dur\": " << span.duration_seconds * 1e6;
    if (!span.args.empty()) {
      e << ", \"args\": {";
      for (std::size_t i = 0; i < span.args.size(); ++i) {
        e << (i > 0 ? ", " : "") << "\"" << Escape(span.args[i].first) << "\": \""
          << Escape(span.args[i].second) << "\"";
      }
      e << "}";
    }
    e << "}";
    events.push_back(e.str());
    // Flow arrows bind to the enclosing slice at their timestamp, so both
    // ends stamp the midpoint of their slice.
    const double mid_us = (span.start_seconds + span.duration_seconds / 2.0) * 1e6;
    if (span.flow_out != 0) {
      std::ostringstream f;
      f << "{\"name\": \"requeue\", \"cat\": \"flow\", \"ph\": \"s\", \"id\": " << span.flow_out
        << ", \"pid\": 1, \"tid\": " << tid << ", \"ts\": " << mid_us << "}";
      events.push_back(f.str());
    }
    if (span.flow_in != 0) {
      std::ostringstream f;
      f << "{\"name\": \"requeue\", \"cat\": \"flow\", \"ph\": \"f\", \"bp\": \"e\", \"id\": "
        << span.flow_in << ", \"pid\": 1, \"tid\": " << tid << ", \"ts\": " << mid_us << "}";
      events.push_back(f.str());
    }
  }
  // Lane naming metadata.
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    std::ostringstream e;
    e << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " << i
      << ", \"args\": {\"name\": \"" << Escape(lanes[i]) << "\"}}";
    events.push_back(e.str());
  }
  // Counter tracks. Perfetto keys counter series by (pid, name), so the
  // track name alone identifies the series; tid is ignored for "C" events.
  for (const TraceCounterSample& sample : counters_) {
    std::ostringstream e;
    e << "{\"name\": \"" << Escape(sample.track) << "\", \"ph\": \"C\", \"pid\": 1, \"ts\": "
      << sample.time_seconds * 1e6 << ", \"args\": {\"value\": " << sample.value << "}}";
    events.push_back(e.str());
  }

  std::ostringstream out;
  out << "[\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    out << "  " << events[i] << (i + 1 < events.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return out.str();
}

void AppendTracer(const obs::Tracer& tracer, TraceWriter& writer) {
  auto convert = [&](const obs::SpanRecord& record, bool open) {
    TraceSpan span;
    span.name = record.name;
    span.lane = record.track;
    span.start_seconds = record.start_seconds;
    span.duration_seconds = record.duration_seconds;
    span.args.reserve(record.attrs.size() + (open ? 1 : 0));
    for (const obs::SpanAttr& attr : record.attrs) {
      span.args.emplace_back(attr.key, attr.value);
    }
    if (open) {
      span.args.emplace_back("open", "true");
    }
    span.flow_out = record.flow_out;
    span.flow_in = record.flow_in;
    writer.AddSpan(std::move(span));
  };
  for (const obs::SpanRecord& record : tracer.FinishedSpans()) {
    convert(record, /*open=*/false);
  }
  for (const obs::SpanRecord& record : tracer.OpenSpans()) {
    convert(record, /*open=*/true);
  }
  for (const obs::CounterSample& sample : tracer.CounterSamples()) {
    writer.AddCounter(sample.track, sample.time_seconds, sample.value);
  }
}

Status TraceWriter::WriteFile(const std::string& path) const {
  std::ofstream file(path);
  if (!file.good()) {
    return InvalidArgumentError("cannot open trace file " + path);
  }
  file << ToJson();
  return Status::Ok();
}

}  // namespace t10
