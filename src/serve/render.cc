#include "serve/render.h"

#include <cmath>
#include <cstdio>
#include <string>

namespace pinocchio {
namespace serve {
namespace {

void JsonString(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out << escaped;
    } else {
      out << c;
    }
  }
  out << '"';
}

/// Scalars print the same in both formats apart from string quoting.
template <typename T>
void Scalar(std::ostream& out, const T& value, bool json) {
  if constexpr (std::is_same_v<T, bool>) {
    out << (value ? "true" : "false");
  } else if constexpr (std::is_enum_v<T>) {
    // Responses carry one enum, the error code; it prints as its name.
    Scalar(out, std::string(ErrorCodeName(value)), json);
  } else if constexpr (std::is_floating_point_v<T>) {
    if (json && !std::isfinite(value)) {
      out << "null";
    } else {
      out << value;
    }
  } else if constexpr (std::is_arithmetic_v<T>) {
    out << value;
  } else {
    static_assert(std::is_same_v<T, std::string>);
    if (json) {
      JsonString(out, value);
    } else {
      out << value;
    }
  }
}

template <typename T>
constexpr bool kIsScalar = std::is_arithmetic_v<T> || std::is_enum_v<T> ||
                           std::is_same_v<T, std::string>;

/// JSON: `"name": value` pairs, recursing into structs and vectors.
class JsonFields {
 public:
  explicit JsonFields(std::ostream& out) : out_(out) {}

  template <typename T>
  void operator()(const char* name, const T& value) {
    out_ << (first_ ? "" : ", ") << '"' << name << "\": ";
    first_ = false;
    Value(value);
  }

  template <typename T>
  void Value(const T& value) {
    if constexpr (kIsScalar<T>) {
      Scalar(out_, value, /*json=*/true);
    } else if constexpr (kIsVector<T>) {
      out_ << '[';
      for (size_t i = 0; i < value.size(); ++i) {
        out_ << (i == 0 ? "" : ", ");
        Value(value[i]);
      }
      out_ << ']';
    } else {
      out_ << '{';
      JsonFields nested(out_);
      Fields(nested, value);
      out_ << '}';
    }
  }

 private:
  std::ostream& out_;
  bool first_ = true;
};

/// Text: one line per field; vector elements one line each, their fields
/// inline as `name=value`.
class TextFields {
 public:
  explicit TextFields(std::ostream& out) : out_(out) {}

  template <typename T>
  void operator()(const char* name, const T& value) {
    if constexpr (kIsScalar<T>) {
      out_ << name << ": ";
      Scalar(out_, value, /*json=*/false);
      out_ << '\n';
    } else if constexpr (kIsVector<T>) {
      if (value.empty()) out_ << name << ": []\n";
      for (size_t i = 0; i < value.size(); ++i) {
        out_ << name << '[' << i << "]:";
        Fields(Inline{out_}, value[i]);
        out_ << '\n';
      }
    } else {
      Fields(*this, value);
    }
  }

 private:
  struct Inline {
    std::ostream& out;
    template <typename T>
    void operator()(const char* name, const T& value) const {
      static_assert(kIsScalar<T>, "vector elements render scalars inline");
      out << ' ' << name << '=';
      Scalar(out, value, /*json=*/false);
    }
  };

  std::ostream& out_;
};

}  // namespace

void RenderResponse(const Response& response, bool json, std::ostream& out) {
  const auto render = [&response](auto&& fields) {
    fields("type", std::string(ResponseTypeName(response.type)));
    VisitOp(kResponseOps, response.type, [&](const auto& op, size_t) {
      Fields(fields, response.*op.member);
    });
  };
  if (json) {
    out << '{';
    render(JsonFields(out));
    out << "}\n";
  } else {
    render(TextFields(out));
  }
}

}  // namespace serve
}  // namespace pinocchio
