// The one way the library writes a whole file.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

namespace facsp {

/// Opens `path` for writing (truncating it) and hands the stream to
/// `write`.  Throws facsp::Error "cannot open '<path>' for writing" when the
/// file cannot be opened and "failed writing '<path>'" when the stream is
/// bad after `write`.
void write_file(const std::string& path,
                const std::function<void(std::ostream&)>& write);

}  // namespace facsp
