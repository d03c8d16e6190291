#include "obs/file.h"

#include <filesystem>
#include <fstream>
#include <sstream>

namespace nose {
namespace obs {

bool WriteFile(const std::string& path, const std::string& contents,
               std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

bool ReadFile(const std::string& path, std::string* contents,
              std::string* error) {
  // A directory opens as a stream and reads as an empty file.
  std::error_code ec;
  std::ifstream in(path, std::ios::binary);
  if (!in || std::filesystem::is_directory(path, ec)) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    if (error != nullptr) *error = "read from " + path + " failed";
    return false;
  }
  *contents = buffer.str();
  return true;
}

}  // namespace obs
}  // namespace nose
