#include "common/file_io.h"

#include <fstream>

#include "common/error.h"

namespace facsp {

void write_file(const std::string& path,
                const std::function<void(std::ostream&)>& write) {
  std::ofstream os(path);
  if (!os) throw Error("cannot open '" + path + "' for writing");
  write(os);
  if (!os) throw Error("failed writing '" + path + "'");
}

}  // namespace facsp
