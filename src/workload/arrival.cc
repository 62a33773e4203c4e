#include "workload/arrival.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/expects.h"

namespace facsp::workload {

void ArrivalSpec::validate() const {
  require_finite("arrival",
                 {on_rate, off_rate, mean_on_s, mean_off_s, diurnal_amplitude,
                  diurnal_period_s, diurnal_phase_rad, flash_fraction,
                  flash_start_s, flash_duration_s});
  switch (kind) {
    case ArrivalKind::kConditionedUniform:
      return;
    case ArrivalKind::kOnOff:
      if (on_rate <= 0.0 || off_rate < 0.0)
        throw ConfigError("arrival: on_rate must be > 0, off_rate >= 0");
      if (on_rate < off_rate)
        throw ConfigError("arrival: on_rate must be >= off_rate");
      if (mean_on_s <= 0.0 || mean_off_s <= 0.0)
        throw ConfigError("arrival: mean on/off sojourns must be > 0");
      return;
    case ArrivalKind::kDiurnal:
      if (diurnal_amplitude < 0.0 || diurnal_amplitude > 1.0)
        throw ConfigError("arrival: diurnal amplitude must be in [0, 1]");
      if (diurnal_period_s <= 0.0)
        throw ConfigError("arrival: diurnal period must be > 0");
      return;
    case ArrivalKind::kFlashCrowd:
      if (flash_fraction < 0.0 || flash_fraction > 1.0)
        throw ConfigError("arrival: flash fraction must be in [0, 1]");
      if (flash_start_s < 0.0 || flash_duration_s < 0.0)
        throw ConfigError("arrival: flash start/duration must be >= 0");
      return;
  }
  throw ConfigError("arrival: unknown kind");
}

std::string_view arrival_kind_name(ArrivalKind kind) noexcept {
  switch (kind) {
    case ArrivalKind::kConditionedUniform:
      return "uniform";
    case ArrivalKind::kOnOff:
      return "onoff";
    case ArrivalKind::kDiurnal:
      return "diurnal";
    case ArrivalKind::kFlashCrowd:
      return "flash";
  }
  return "?";
}

ArrivalKind arrival_kind_from_name(std::string_view name) {
  for (ArrivalKind k :
       {ArrivalKind::kConditionedUniform, ArrivalKind::kOnOff,
        ArrivalKind::kDiurnal, ArrivalKind::kFlashCrowd})
    if (name == arrival_kind_name(k)) return k;
  throw ConfigError("arrival: unknown kind '" + std::string(name) +
                    "' (uniform|onoff|diurnal|flash)");
}

namespace {

/// Paper behaviour: n i.i.d. uniform times over the window, then sort — the
/// order statistics of a homogeneous Poisson process conditioned on n.
/// Draw-for-draw identical to the pre-refactor TrafficGenerator loop.
class ConditionedUniformArrivals final : public ArrivalProcess {
 public:
  std::string_view name() const noexcept override { return "uniform"; }

  void generate(int n, sim::SimTime t0, double window_s,
                sim::RandomStream& rng,
                std::vector<sim::SimTime>& out) const override {
    out.clear();
    for (int i = 0; i < n; ++i) out.push_back(t0 + rng.uniform(0.0, window_s));
    std::sort(out.begin(), out.end());
  }
};

/// Two-state MMPP, conditioned on n arrivals: first simulate the ON/OFF
/// phase path over the window, then draw the n times i.i.d. from the
/// piecewise-constant density proportional to the phase rate (inverse-CDF
/// over the cumulative intensity), then sort.  This is the exact
/// conditional law of the MMPP given n arrivals and the phase path.
class OnOffArrivals final : public ArrivalProcess {
 public:
  explicit OnOffArrivals(const ArrivalSpec& spec) : spec_(spec) {}

  std::string_view name() const noexcept override { return "onoff"; }

  void generate(int n, sim::SimTime t0, double window_s,
                sim::RandomStream& rng,
                std::vector<sim::SimTime>& out) const override {
    out.clear();
    if (n <= 0) return;
    if (window_s <= 0.0) {
      out.assign(static_cast<std::size_t>(n), t0);
      return;
    }

    // Phase path: alternating ON/OFF segments covering [0, window].  The
    // initial phase follows the stationary distribution.
    struct Segment {
      double start;
      double cum_mass;  // cumulative intensity mass up to segment start
      double rate;
    };
    std::vector<Segment> segments;
    const double p_on = spec_.mean_on_s / (spec_.mean_on_s + spec_.mean_off_s);
    bool on = rng.bernoulli(p_on);
    double t = 0.0, mass = 0.0;
    while (t < window_s) {
      const double rate = on ? spec_.on_rate : spec_.off_rate;
      const double sojourn =
          rng.exponential(on ? spec_.mean_on_s : spec_.mean_off_s);
      segments.push_back({t, mass, rate});
      const double len = std::min(sojourn, window_s - t);
      mass += rate * len;
      t += sojourn;
      on = !on;
    }
    if (mass <= 0.0) {  // an all-OFF path with off_rate == 0: fall back to
      out.clear();      // uniform so the batch still carries n requests
      for (int i = 0; i < n; ++i)
        out.push_back(t0 + rng.uniform(0.0, window_s));
      std::sort(out.begin(), out.end());
      return;
    }

    // Inverse CDF over the piecewise-constant cumulative mass.
    for (int i = 0; i < n; ++i) {
      const double u = rng.uniform(0.0, mass);
      // Last segment whose cum_mass <= u.
      std::size_t lo = 0, hi = segments.size() - 1;
      while (lo < hi) {
        const std::size_t mid = (lo + hi + 1) / 2;
        if (segments[mid].cum_mass <= u)
          lo = mid;
        else
          hi = mid - 1;
      }
      const Segment& seg = segments[lo];
      const double within =
          seg.rate > 0.0 ? (u - seg.cum_mass) / seg.rate : 0.0;
      out.push_back(t0 + std::min(seg.start + within, window_s));
    }
    std::sort(out.begin(), out.end());
  }

 private:
  ArrivalSpec spec_;
};

/// Non-homogeneous "diurnal" intensity lambda(t) = 1 + a*sin(2*pi*t/P + phi),
/// sampled by thinning (accept a uniform candidate with probability
/// lambda(t)/lambda_max) — i.i.d. draws from the normalized intensity, the
/// conditional law of the non-homogeneous Poisson process given n arrivals.
class DiurnalArrivals final : public ArrivalProcess {
 public:
  explicit DiurnalArrivals(const ArrivalSpec& spec) : spec_(spec) {}

  std::string_view name() const noexcept override { return "diurnal"; }

  void generate(int n, sim::SimTime t0, double window_s,
                sim::RandomStream& rng,
                std::vector<sim::SimTime>& out) const override {
    out.clear();
    if (n <= 0) return;
    if (window_s <= 0.0) {
      out.assign(static_cast<std::size_t>(n), t0);
      return;
    }
    const double two_pi = 2.0 * 3.14159265358979323846;
    const double lambda_max = 1.0 + spec_.diurnal_amplitude;
    for (int i = 0; i < n; ++i) {
      for (;;) {
        const double t = rng.uniform(0.0, window_s);
        const double lambda =
            1.0 + spec_.diurnal_amplitude *
                      std::sin(two_pi * t / spec_.diurnal_period_s +
                               spec_.diurnal_phase_rad);
        if (rng.uniform(0.0, lambda_max) <= lambda) {
          out.push_back(t0 + t);
          break;
        }
      }
    }
    std::sort(out.begin(), out.end());
  }

 private:
  ArrivalSpec spec_;
};

/// Flash crowd: each arrival joins a short burst with probability
/// flash_fraction, otherwise lands uniformly over the window.  The burst is
/// clamped inside the window so every request stays in [t0, t0 + window].
class FlashCrowdArrivals final : public ArrivalProcess {
 public:
  explicit FlashCrowdArrivals(const ArrivalSpec& spec) : spec_(spec) {}

  std::string_view name() const noexcept override { return "flash"; }

  void generate(int n, sim::SimTime t0, double window_s,
                sim::RandomStream& rng,
                std::vector<sim::SimTime>& out) const override {
    out.clear();
    if (n <= 0) return;
    if (window_s <= 0.0) {
      out.assign(static_cast<std::size_t>(n), t0);
      return;
    }
    const double start = std::min(spec_.flash_start_s, window_s);
    const double duration = std::min(spec_.flash_duration_s, window_s - start);
    for (int i = 0; i < n; ++i) {
      if (rng.bernoulli(spec_.flash_fraction))
        out.push_back(t0 + start + rng.uniform(0.0, duration));
      else
        out.push_back(t0 + rng.uniform(0.0, window_s));
    }
    std::sort(out.begin(), out.end());
  }

 private:
  ArrivalSpec spec_;
};

}  // namespace

std::unique_ptr<ArrivalProcess> make_arrival_process(const ArrivalSpec& spec) {
  spec.validate();
  switch (spec.kind) {
    case ArrivalKind::kConditionedUniform:
      return std::make_unique<ConditionedUniformArrivals>();
    case ArrivalKind::kOnOff:
      return std::make_unique<OnOffArrivals>(spec);
    case ArrivalKind::kDiurnal:
      return std::make_unique<DiurnalArrivals>(spec);
    case ArrivalKind::kFlashCrowd:
      return std::make_unique<FlashCrowdArrivals>(spec);
  }
  throw ConfigError("arrival: unknown kind");
}

}  // namespace facsp::workload
