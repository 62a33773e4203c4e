#include "fuzzy/rule.h"

#include <sstream>

#include "common/expects.h"
#include "fuzzy/variable.h"

namespace facsp::fuzzy {

std::string to_string(const FuzzyRule& rule,
                      const std::vector<LinguisticVariable>& inputs,
                      const LinguisticVariable& output) {
  FACSP_EXPECTS(rule.antecedents.size() == inputs.size());
  std::ostringstream os;
  os << "IF ";
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (i > 0) os << " AND ";
    os << inputs[i].name() << " is "
       << inputs[i].term(rule.antecedents[i]).name;
  }
  os << " THEN " << output.name() << " is "
     << output.term(rule.consequent).name;
  return os.str();
}

}  // namespace facsp::fuzzy
