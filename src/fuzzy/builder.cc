#include "fuzzy/builder.h"

#include "common/error.h"
#include "common/math_util.h"

namespace facsp::fuzzy {

VariableBuilder::VariableBuilder(std::string name, double universe_lo,
                                 double universe_hi)
    : name_(std::move(name)), lo_(universe_lo), hi_(universe_hi) {}

VariableBuilder& VariableBuilder::triangular(std::string term, double center,
                                             double left_width,
                                             double right_width) {
  terms_.push_back({std::move(term), MembershipFunction::triangular(
                                         center, left_width, right_width)});
  return *this;
}

VariableBuilder& VariableBuilder::trapezoidal(std::string term,
                                              double plateau_lo,
                                              double plateau_hi,
                                              double left_width,
                                              double right_width) {
  terms_.push_back({std::move(term),
                    MembershipFunction::trapezoidal(plateau_lo, plateau_hi,
                                                    left_width, right_width)});
  return *this;
}

VariableBuilder& VariableBuilder::left_shoulder(std::string term,
                                                double plateau_hi,
                                                double right_width) {
  terms_.push_back({std::move(term), MembershipFunction::left_shoulder(
                                         plateau_hi, right_width)});
  return *this;
}

VariableBuilder& VariableBuilder::right_shoulder(std::string term,
                                                 double plateau_lo,
                                                 double left_width) {
  terms_.push_back({std::move(term), MembershipFunction::right_shoulder(
                                         plateau_lo, left_width)});
  return *this;
}

VariableBuilder& VariableBuilder::term(std::string term_name,
                                       MembershipFunction mf) {
  terms_.push_back({std::move(term_name), mf});
  return *this;
}

VariableBuilder& VariableBuilder::uniform_partition(const std::string& prefix,
                                                    int count) {
  if (count < 2)
    throw ConfigError("uniform_partition: need at least 2 terms");
  // Each term's feet sit exactly on its neighbours' centres (center +/- step
  // can miss them by an ulp), so only adjacent supports overlap: the layout
  // the analytic centroid needs.
  const double step = (hi_ - lo_) / (count - 1);
  const auto center = [&](int k) { return lo_ + k * step; };
  for (int k = 0; k < count; ++k) {
    const std::string name = prefix + std::to_string(k + 1);
    if (k == 0) {
      term(name, MembershipFunction::from_breakpoints(-kInf, -kInf, center(0),
                                                      center(1)));
    } else if (k == count - 1) {
      term(name, MembershipFunction::from_breakpoints(center(k - 1),
                                                      center(k), kInf, kInf));
    } else {
      term(name, MembershipFunction::from_breakpoints(
                     center(k - 1), center(k), center(k), center(k + 1)));
    }
  }
  return *this;
}

LinguisticVariable VariableBuilder::build() const {
  return LinguisticVariable(name_, lo_, hi_, terms_);
}

ControllerBuilder::ControllerBuilder(std::string name)
    : name_(std::move(name)) {}

ControllerBuilder& ControllerBuilder::input(LinguisticVariable v) {
  inputs_.push_back(std::move(v));
  return *this;
}

ControllerBuilder& ControllerBuilder::output(LinguisticVariable v) {
  if (!output_.empty())
    throw ConfigError("controller '" + name_ + "': output already set");
  output_.push_back(std::move(v));
  return *this;
}

ControllerBuilder& ControllerBuilder::rule_table(
    std::vector<std::string> consequents) {
  consequents_ = std::move(consequents);
  return *this;
}

std::unique_ptr<FuzzyController> ControllerBuilder::build() {
  if (output_.empty())
    throw ConfigError("controller '" + name_ + "': no output variable");
  if (consequents_.empty())
    throw ConfigError("controller '" + name_ + "': no rule table");
  return std::make_unique<FuzzyController>(name_, std::move(inputs_),
                                           std::move(output_.front()),
                                           consequents_);
}

}  // namespace facsp::fuzzy
