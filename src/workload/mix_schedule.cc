#include "workload/mix_schedule.h"

#include <charconv>
#include <string_view>

#include "common/error.h"

namespace facsp::workload {

int MixSchedule::segment_at(double t_s) const noexcept {
  int active = -1;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (segments_[i].start_s <= t_s)
      active = static_cast<int>(i);
    else
      break;
  }
  return active;
}

const cellular::TrafficMix& MixSchedule::mix_at(
    double t_s, const cellular::TrafficMix& base) const noexcept {
  const int idx = segment_at(t_s);
  return idx < 0 ? base : segments_[static_cast<std::size_t>(idx)].mix;
}

void MixSchedule::validate() const {
  double prev = -1.0;
  for (const MixSegment& seg : segments_) {
    require_finite("mix_schedule", {seg.start_s});
    if (seg.start_s < 0.0)
      throw ConfigError("mix_schedule: segment start must be >= 0");
    if (seg.start_s <= prev)
      throw ConfigError(
          "mix_schedule: segment starts must be strictly increasing");
    seg.mix.validate();
    prev = seg.start_s;
  }
}

namespace {

/// Reads "start:text/voice/video" into `out`.  Each field must be one whole
/// number as std::from_chars reads it, as in the trace reader: no blanks,
/// no '+', no hex float, nothing out of range.  False on any other shape.
bool parse_segment(std::string_view token, double (&out)[4]) {
  constexpr char kSeparators[4] = {':', '/', '/', '\0'};
  for (int i = 0; i < 4; ++i) {
    const char sep = kSeparators[i];
    const std::size_t len = sep != '\0' ? token.find(sep) : token.size();
    if (len == std::string_view::npos) return false;
    const char* end = token.data() + len;
    const auto [ptr, ec] = std::from_chars(token.data(), end, out[i]);
    if (ec != std::errc() || ptr != end) return false;
    token.remove_prefix(sep != '\0' ? len + 1 : len);
  }
  return true;
}

}  // namespace

MixSchedule MixSchedule::from_string(const std::string& text) {
  if (text.empty() || text == "none") return MixSchedule{};
  std::vector<MixSegment> segments;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t semi = text.find(';', pos);
    const std::string token = text.substr(
        pos, semi == std::string::npos ? std::string::npos : semi - pos);
    double x[4];  // start, text, voice, video
    if (!parse_segment(token, x))
      throw ConfigError("mix_schedule: expected 'start:text/voice/video', got '" +
                        token + "'");
    MixSegment seg;
    seg.start_s = x[0];
    seg.mix = cellular::TrafficMix{x[1], x[2], x[3]};
    segments.push_back(seg);
    if (semi == std::string::npos) break;
    pos = semi + 1;
  }
  MixSchedule schedule(std::move(segments));
  schedule.validate();
  return schedule;
}

namespace {

// Shortest decimal that parses back to exactly the same double, so a valid
// schedule never serializes into one that fails validation on reload.
std::string print_double(double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, end);
}

}  // namespace

std::string MixSchedule::to_string() const {
  if (segments_.empty()) return "none";
  std::string out;
  for (const MixSegment& seg : segments_) {
    if (!out.empty()) out += ';';
    out += print_double(seg.start_s) + ':' + print_double(seg.mix.text) +
           '/' + print_double(seg.mix.voice) + '/' +
           print_double(seg.mix.video);
  }
  return out;
}

}  // namespace facsp::workload
