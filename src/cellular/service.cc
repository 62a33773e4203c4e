#include "cellular/service.h"

#include <cmath>
#include <ostream>

#include "common/error.h"

namespace facsp::cellular {

Bandwidth service_bandwidth(ServiceClass s) noexcept {
  switch (s) {
    case ServiceClass::kText: return 1.0;
    case ServiceClass::kVoice: return 5.0;
    case ServiceClass::kVideo: return 10.0;
  }
  return 1.0;  // unreachable
}

bool is_real_time(ServiceClass s) noexcept {
  return s == ServiceClass::kVoice || s == ServiceClass::kVideo;
}

std::string_view service_name(ServiceClass s) noexcept {
  switch (s) {
    case ServiceClass::kText: return "text";
    case ServiceClass::kVoice: return "voice";
    case ServiceClass::kVideo: return "video";
  }
  return "text";  // unreachable
}

std::ostream& operator<<(std::ostream& os, ServiceClass s) {
  return os << service_name(s);
}

std::string_view priority_name(UserPriority p) noexcept {
  switch (p) {
    case UserPriority::kLow: return "low";
    case UserPriority::kNormal: return "normal";
    case UserPriority::kHigh: return "high";
  }
  return "normal";  // unreachable
}

std::ostream& operator<<(std::ostream& os, UserPriority p) {
  return os << priority_name(p);
}

void TrafficMix::validate() const {
  require_finite("traffic mix", {text, voice, video});
  if (text < 0.0 || voice < 0.0 || video < 0.0)
    throw ConfigError("traffic mix: probabilities must be non-negative");
  const double sum = text + voice + video;
  if (std::fabs(sum - 1.0) > 1e-6)
    throw ConfigError("traffic mix: probabilities must sum to 1, got " +
                      std::to_string(sum));
}

double TrafficMix::probability(ServiceClass s) const noexcept {
  switch (s) {
    case ServiceClass::kText: return text;
    case ServiceClass::kVoice: return voice;
    case ServiceClass::kVideo: return video;
  }
  return 0.0;  // unreachable
}

Bandwidth TrafficMix::mean_bandwidth() const noexcept {
  return text * service_bandwidth(ServiceClass::kText) +
         voice * service_bandwidth(ServiceClass::kVoice) +
         video * service_bandwidth(ServiceClass::kVideo);
}

}  // namespace facsp::cellular
