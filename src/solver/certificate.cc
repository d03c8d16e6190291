#include "solver/certificate.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "obs/file.h"

namespace nose {

namespace {

/// Hexfloat rendering (%a): round-trips every finite double bit-exactly
/// through strtod, and prints "inf"/"-inf"/"nan" for the specials.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return std::string(buf);
}

bool ParseDouble(const std::string& tok, double* out) {
  const char* s = tok.c_str();
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0' && errno != ERANGE;
}

bool ParseInt(const std::string& tok, long min, long max, long* out) {
  const char* s = tok.c_str();
  char* end = nullptr;
  errno = 0;
  *out = std::strtol(s, &end, 10);
  return end != s && *end == '\0' && errno == 0 && *out >= min && *out <= max;
}

/// Line cursor over the serialized text: tracks the 1-based line number for
/// error messages and splits each line into whitespace tokens.
struct LineReader {
  std::istringstream in;
  int line_no = 0;

  explicit LineReader(const std::string& text) : in(text) {}

  bool Next(std::vector<std::string>* tokens, std::string* raw) {
    std::string line;
    while (std::getline(in, line)) {
      ++line_no;
      if (line.empty()) continue;
      if (raw != nullptr) *raw = line;
      tokens->clear();
      std::istringstream ls(line);
      std::string tok;
      while (ls >> tok) tokens->push_back(tok);
      if (!tokens->empty()) return true;
    }
    return false;
  }

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("certificate line " +
                                   std::to_string(line_no) + ": " + what);
  }
};

constexpr const char* kHeader = "nose-certificate";
constexpr const char* kVersion = "v1";

}  // namespace

std::string CertificateToString(const SolveCertificate& cert) {
  std::string out;
  out.reserve(4096);
  auto append = [&out](const std::string& s) { out += s; };
  append(std::string(kHeader) + " " + kVersion + "\n");
  append("instance " + (cert.instance.empty() ? "-" : cert.instance) + "\n");
  append("status " + (cert.status.empty() ? "-" : cert.status) + "\n");
  append("objective " + FormatDouble(cert.objective) + "\n");

  const int n = cert.problem.num_variables();
  const int m = cert.problem.num_rows();
  append("vars " + std::to_string(n) + "\n");
  for (int j = 0; j < n; ++j) {
    append("v " + FormatDouble(cert.problem.lower_bound(j)) + " " +
           FormatDouble(cert.problem.upper_bound(j)) + " " +
           FormatDouble(cert.problem.cost(j)) + "\n");
  }
  append("rows " + std::to_string(m) + "\n");
  for (int i = 0; i < m; ++i) {
    const LpRow& row = cert.problem.row(i);
    const char sense = row.type == RowType::kLe   ? 'L'
                       : row.type == RowType::kGe ? 'G'
                                                  : 'E';
    std::string line = "r ";
    line += sense;
    line += " " + FormatDouble(row.rhs) + " " +
            std::to_string(row.indices.size());
    for (size_t k = 0; k < row.indices.size(); ++k) {
      line += " " + std::to_string(row.indices[k]) + " " +
              FormatDouble(row.values[k]);
    }
    append(line + "\n");
  }

  std::string bin = "binaries " + std::to_string(cert.binary_vars.size());
  for (int v : cert.binary_vars) bin += " " + std::to_string(v);
  append(bin + "\n");

  std::string xs = "x " + std::to_string(cert.x.size());
  for (double v : cert.x) xs += " " + FormatDouble(v);
  append(xs + "\n");

  append(std::string("root ") + (cert.root_available ? "1" : "0") + " " +
         FormatDouble(cert.root_objective) + "\n");
  if (cert.root_available) {
    std::string ds = "duals " + std::to_string(cert.root_duals.size());
    for (double y : cert.root_duals) ds += " " + FormatDouble(y);
    append(ds + "\n");
  }
  append("end\n");
  return out;
}

Status WriteCertificate(const SolveCertificate& cert,
                        const std::string& path) {
  std::string error;
  if (!obs::WriteFile(path, CertificateToString(cert), &error)) {
    return Status::Internal("certificate: " + error);
  }
  return Status::Ok();
}

StatusOr<SolveCertificate> ParseCertificate(const std::string& text) {
  LineReader reader(text);
  std::vector<std::string> tok;
  std::string raw;

  if (!reader.Next(&tok, &raw) || tok.size() != 2 || tok[0] != kHeader) {
    return reader.Error("expected '" + std::string(kHeader) + " " + kVersion +
                        "' header");
  }
  if (tok[1] != kVersion) {
    return reader.Error("unsupported certificate version '" + tok[1] + "'");
  }

  SolveCertificate cert;
  if (!reader.Next(&tok, &raw) || tok[0] != "instance" || tok.size() < 2) {
    return reader.Error("expected 'instance <label>'");
  }
  for (size_t k = 1; k < tok.size(); ++k) {
    if (k > 1) cert.instance += " ";
    cert.instance += tok[k];
  }
  if (cert.instance == "-") cert.instance.clear();

  if (!reader.Next(&tok, &raw) || tok[0] != "status" || tok.size() != 2) {
    return reader.Error("expected 'status <name>'");
  }
  cert.status = tok[1] == "-" ? "" : tok[1];

  if (!reader.Next(&tok, &raw) || tok[0] != "objective" || tok.size() != 2 ||
      !ParseDouble(tok[1], &cert.objective)) {
    return reader.Error("expected 'objective <value>'");
  }

  long n = 0;
  if (!reader.Next(&tok, &raw) || tok[0] != "vars" || tok.size() != 2 ||
      !ParseInt(tok[1], 0, 100000000, &n)) {
    return reader.Error("expected 'vars <count>'");
  }
  for (long j = 0; j < n; ++j) {
    double lb = 0.0, ub = 0.0, cost = 0.0;
    if (!reader.Next(&tok, &raw) || tok[0] != "v" || tok.size() != 4 ||
        !ParseDouble(tok[1], &lb) || !ParseDouble(tok[2], &ub) ||
        !ParseDouble(tok[3], &cost)) {
      return reader.Error("expected 'v <lb> <ub> <cost>'");
    }
    cert.problem.AddVariable(lb, ub, cost);
  }

  long m = 0;
  if (!reader.Next(&tok, &raw) || tok[0] != "rows" || tok.size() != 2 ||
      !ParseInt(tok[1], 0, 100000000, &m)) {
    return reader.Error("expected 'rows <count>'");
  }
  for (long i = 0; i < m; ++i) {
    if (!reader.Next(&tok, &raw) || tok[0] != "r" || tok.size() < 4) {
      return reader.Error("expected 'r <sense> <rhs> <nnz> ...'");
    }
    RowType type;
    if (tok[1] == "L") {
      type = RowType::kLe;
    } else if (tok[1] == "G") {
      type = RowType::kGe;
    } else if (tok[1] == "E") {
      type = RowType::kEq;
    } else {
      return reader.Error("unknown row sense '" + tok[1] + "'");
    }
    double rhs = 0.0;
    long nnz = 0;
    if (!ParseDouble(tok[2], &rhs) || !ParseInt(tok[3], 0, n, &nnz) ||
        tok.size() != static_cast<size_t>(4 + 2 * nnz)) {
      return reader.Error("malformed row coefficient list");
    }
    std::vector<std::pair<int, double>> coeffs;
    coeffs.reserve(static_cast<size_t>(nnz));
    for (long k = 0; k < nnz; ++k) {
      long idx = 0;
      double val = 0.0;
      if (!ParseInt(tok[static_cast<size_t>(4 + 2 * k)], 0, n - 1, &idx) ||
          !ParseDouble(tok[static_cast<size_t>(5 + 2 * k)], &val)) {
        return reader.Error("malformed row coefficient");
      }
      coeffs.emplace_back(static_cast<int>(idx), val);
    }
    cert.problem.AddRow(type, rhs, std::move(coeffs));
  }

  long nbin = 0;
  if (!reader.Next(&tok, &raw) || tok[0] != "binaries" || tok.size() < 2 ||
      !ParseInt(tok[1], 0, n, &nbin) ||
      tok.size() != static_cast<size_t>(2 + nbin)) {
    return reader.Error("expected 'binaries <count> <indices...>'");
  }
  for (long k = 0; k < nbin; ++k) {
    long idx = 0;
    if (!ParseInt(tok[static_cast<size_t>(2 + k)], 0, n - 1, &idx)) {
      return reader.Error("binary index out of range");
    }
    cert.binary_vars.push_back(static_cast<int>(idx));
  }

  long nx = 0;
  if (!reader.Next(&tok, &raw) || tok[0] != "x" || tok.size() < 2 ||
      !ParseInt(tok[1], 0, n, &nx) ||
      tok.size() != static_cast<size_t>(2 + nx)) {
    return reader.Error("expected 'x <count> <values...>'");
  }
  if (nx != n) {
    return reader.Error("solution vector length does not match 'vars'");
  }
  for (long k = 0; k < nx; ++k) {
    double v = 0.0;
    if (!ParseDouble(tok[static_cast<size_t>(2 + k)], &v)) {
      return reader.Error("malformed solution value");
    }
    cert.x.push_back(v);
  }

  long root_flag = 0;
  if (!reader.Next(&tok, &raw) || tok[0] != "root" || tok.size() != 3 ||
      !ParseInt(tok[1], 0, 1, &root_flag) ||
      !ParseDouble(tok[2], &cert.root_objective)) {
    return reader.Error("expected 'root <0|1> <objective>'");
  }
  cert.root_available = root_flag == 1;
  if (cert.root_available) {
    long nd = 0;
    if (!reader.Next(&tok, &raw) || tok[0] != "duals" || tok.size() < 2 ||
        !ParseInt(tok[1], 0, m, &nd) ||
        tok.size() != static_cast<size_t>(2 + nd)) {
      return reader.Error("expected 'duals <count> <values...>'");
    }
    if (nd != m) {
      return reader.Error("dual vector length does not match 'rows'");
    }
    for (long k = 0; k < nd; ++k) {
      double y = 0.0;
      if (!ParseDouble(tok[static_cast<size_t>(2 + k)], &y)) {
        return reader.Error("malformed dual value");
      }
      cert.root_duals.push_back(y);
    }
  }

  if (!reader.Next(&tok, &raw) || tok[0] != "end") {
    return reader.Error("expected 'end'");
  }
  return cert;
}

StatusOr<SolveCertificate> ReadCertificate(const std::string& path) {
  std::string text, error;
  if (!obs::ReadFile(path, &text, &error)) {
    return Status::NotFound("certificate: " + error);
  }
  return ParseCertificate(text);
}

}  // namespace nose
