#ifndef NOSE_OBS_FILE_H_
#define NOSE_OBS_FILE_H_

#include <string>

namespace nose {
namespace obs {

/// The one file writer: replaces `path` with exactly the bytes of
/// `contents`. Returns false, filling *error when non-null, if the file
/// cannot be opened or the write does not complete. Every file a NoSE
/// program writes (trace, run report, certificate, bench metric dumps)
/// goes through here.
bool WriteFile(const std::string& path, const std::string& contents,
               std::string* error = nullptr);

/// The one file reader: the whole of `path`, byte for byte, into
/// *contents. Returns false, filling *error when non-null, if the file
/// cannot be opened or read.
bool ReadFile(const std::string& path, std::string* contents,
              std::string* error = nullptr);

}  // namespace obs
}  // namespace nose

#endif  // NOSE_OBS_FILE_H_
