#include "obs/report.h"

#include <cmath>
#include <cstdio>

#include "obs/file.h"

namespace nose {
namespace obs {

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

namespace {

void AppendDouble(std::string* out, double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  *out += buf;
}

}  // namespace

void RunReport::AddPhase(const std::string& name, double seconds) {
  phases_.emplace_back(name, seconds);
}

void RunReport::AddString(const std::string& key, const std::string& value) {
  std::string rendered;
  AppendJsonString(&rendered, value);
  fields_.emplace_back(key, std::move(rendered));
}

void RunReport::AddNumber(const std::string& key, double value) {
  std::string rendered;
  AppendDouble(&rendered, value);
  fields_.emplace_back(key, std::move(rendered));
}

void RunReport::AddSection(const std::string& key, std::string json) {
  if (!json.empty()) sections_.emplace_back(key, std::move(json));
}

std::string RunReport::ToJson() const {
  std::string out = "{\"report_version\":1,\"command\":";
  AppendJsonString(&out, command_);
  for (const auto& [key, rendered] : fields_) {
    out.push_back(',');
    AppendJsonString(&out, key);
    out.push_back(':');
    out += rendered;
  }
  out += ",\"phases\":{";
  bool first = true;
  for (const auto& [name, seconds] : phases_) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name + "_seconds");
    out.push_back(':');
    AppendDouble(&out, seconds);
  }
  out.push_back('}');
  for (const auto& [key, json] : sections_) {
    out.push_back(',');
    AppendJsonString(&out, key);
    out.push_back(':');
    out += json;
  }
  out.push_back('}');
  return out;
}

bool RunReport::WriteJson(const std::string& path, std::string* error) const {
  return WriteFile(path, ToJson() + "\n", error);
}

}  // namespace obs
}  // namespace nose
