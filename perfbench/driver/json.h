// Minimal JSON writer for the driver's result line.
#ifndef PERFBENCH_DRIVER_JSON_H_
#define PERFBENCH_DRIVER_JSON_H_

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace perfbench {

class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }

  JsonWriter& Key(std::string_view key) {
    Separate();
    String(key);
    out_ += ':';
    after_key_ = true;
    return *this;
  }
  JsonWriter& Str(std::string_view value) {
    Separate();
    String(value);
    return *this;
  }
  // Non-finite numbers (an infinite latency) are written as null.
  JsonWriter& Num(double value) {
    Separate();
    if (!std::isfinite(value)) {
      out_ += "null";
    } else {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      out_ += buf;
    }
    return *this;
  }
  JsonWriter& Int(long long value) {
    Separate();
    out_ += std::to_string(value);
    return *this;
  }
  JsonWriter& Bool(bool value) {
    Separate();
    out_ += value ? "true" : "false";
    return *this;
  }

  const std::string& str() const { return out_; }

 private:
  JsonWriter& Open(char c) {
    Separate();
    out_ += c;
    first_ = true;
    return *this;
  }
  JsonWriter& Close(char c) {
    out_ += c;
    first_ = false;
    return *this;
  }
  void Separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_ && !out_.empty()) {
      out_ += ',';
    }
    first_ = false;
  }
  void String(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  bool first_ = true;
  bool after_key_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_JSON_H_
