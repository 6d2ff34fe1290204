// Writer for the raw measurement document nvffbench hands to
// run.py. Numbers keep all their digits (%.17g); run.py does every piece of
// arithmetic on them (medians, percentiles, ratios, span self time).
#pragma once

#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

class JsonObj {
public:
  JsonObj& num(const std::string& key, double v) { return raw(key, nvff::json::num(v)); }
  JsonObj& integer(const std::string& key, long v) { return raw(key, std::to_string(v)); }
  JsonObj& boolean(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  JsonObj& str(const std::string& key, const std::string& v) {
    std::string quoted;
    nvff::json::append_escaped(quoted, v);
    return raw(key, quoted);
  }
  JsonObj& nums(const std::string& key, const std::vector<double>& vs) {
    std::string arr = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) arr += ',';
      arr += nvff::json::num(vs[i]);
    }
    return raw(key, arr + "]");
  }
  JsonObj& strs(const std::string& key, const std::vector<std::string>& vs) {
    std::string arr = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) arr += ',';
      nvff::json::append_escaped(arr, vs[i]);
    }
    return raw(key, arr + "]");
  }
  JsonObj& obj(const std::string& key, const JsonObj& v) { return raw(key, v.text()); }
  JsonObj& objs(const std::string& key, const std::vector<JsonObj>& vs) {
    std::string arr = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) arr += ',';
      arr += vs[i].text();
    }
    return raw(key, arr + "]");
  }
  /// `v` must already be valid JSON.
  JsonObj& raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ',';
    nvff::json::append_escaped(body_, key);
    body_ += ':';
    body_ += v;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

private:
  std::string body_;
};

} // namespace perfbench
