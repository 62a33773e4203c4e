#include "workload/mix_schedule.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

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
    if (seg.start_s < 0.0)
      throw ConfigError("mix_schedule: segment start must be >= 0");
    if (seg.start_s <= prev)
      throw ConfigError(
          "mix_schedule: segment starts must be strictly increasing");
    seg.mix.validate();
    prev = seg.start_s;
  }
}

MixSchedule MixSchedule::from_string(const std::string& text) {
  if (text.empty() || text == "none") return MixSchedule{};
  std::vector<MixSegment> segments;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t semi = text.find(';', pos);
    const std::string token = text.substr(
        pos, semi == std::string::npos ? std::string::npos : semi - pos);
    MixSegment seg;
    double start = 0.0, t = 0.0, v = 0.0, d = 0.0;
    char trailing = '\0';
    if (std::sscanf(token.c_str(), "%lf:%lf/%lf/%lf%c", &start, &t, &v, &d,
                    &trailing) != 4)
      throw ConfigError("mix_schedule: expected 'start:text/voice/video', got '" +
                        token + "'");
    if (!std::isfinite(start) || !std::isfinite(t) || !std::isfinite(v) ||
        !std::isfinite(d))
      throw ConfigError("mix_schedule: numbers must be finite, got '" +
                        token + "'");
    seg.start_s = start;
    seg.mix = cellular::TrafficMix{t, v, d};
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
