#include "common/cli.hpp"

#include <charconv>

namespace gossip {

ArgParser::ArgParser(std::vector<std::string> tokens) {
  parse(std::move(tokens));
}

ArgParser::ArgParser(int argc, const char* const* argv) {
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
  parse(std::move(tokens));
}

void ArgParser::parse(std::vector<std::string> tokens) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(token);
      continue;
    }
    const std::string body = token.substr(2);
    if (body.empty()) throw CliError("empty option name: '" + token + "'");
    if (const auto eq = body.find('='); eq != std::string::npos) {
      const std::string name = body.substr(0, eq);
      if (name.empty()) throw CliError("empty option name: '" + token + "'");
      options_[name] = body.substr(eq + 1);
      continue;
    }
    // "--name value" when the next token is not an option; else bare flag.
    if (i + 1 < tokens.size() && tokens[i + 1].rfind("--", 0) != 0) {
      options_[body] = tokens[i + 1];
      ++i;
    } else {
      // Move-assign a temporary: assigning the const char* directly makes
      // GCC 12 at -O3 report a false -Wrestrict inside std::string.
      options_[body] = std::string(kNoValue);
    }
  }
}

bool ArgParser::has(const std::string& name) const {
  return options_.contains(name);
}

std::string ArgParser::get_string(const std::string& name,
                                  const std::string& fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  if (it->second == kNoValue) {
    throw CliError("option --" + name + " requires a value");
  }
  return it->second;
}

std::int64_t ArgParser::get_int(const std::string& name, std::int64_t fallback,
                                std::int64_t min_value,
                                std::int64_t max_value) const {
  if (!has(name)) return fallback;
  const std::string text = get_string(name, "");
  std::int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    throw CliError("option --" + name + ": '" + text + "' is not an integer");
  }
  if (value < min_value || value > max_value) {
    throw CliError("option --" + name + ": " + text + " out of range [" +
                   std::to_string(min_value) + ", " +
                   std::to_string(max_value) + "]");
  }
  return value;
}

std::size_t ArgParser::get_size(const std::string& name, std::size_t fallback,
                                std::size_t min_value,
                                std::size_t max_value) const {
  const auto v = get_int(name, static_cast<std::int64_t>(fallback),
                         static_cast<std::int64_t>(min_value),
                         static_cast<std::int64_t>(max_value));
  return static_cast<std::size_t>(v);
}

double ArgParser::get_double(const std::string& name, double fallback,
                             double min_value, double max_value) const {
  if (!has(name)) return fallback;
  const std::string text = get_string(name, "");
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &consumed);
  } catch (const std::exception&) {
    throw CliError("option --" + name + ": '" + text + "' is not a number");
  }
  if (consumed != text.size()) {
    throw CliError("option --" + name + ": '" + text + "' is not a number");
  }
  if (value < min_value || value > max_value) {
    throw CliError("option --" + name + ": " + text + " out of range");
  }
  return value;
}

bool ArgParser::get_flag(const std::string& name, bool fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  if (it->second == kNoValue || it->second == "true" || it->second == "1") {
    return true;
  }
  if (it->second == "false" || it->second == "0") return false;
  throw CliError("option --" + name + ": expected a boolean, got '" +
                 it->second + "'");
}

std::vector<std::string> ArgParser::option_names() const {
  std::vector<std::string> names;
  names.reserve(options_.size());
  for (const auto& [name, value] : options_) names.push_back(name);
  return names;
}

}  // namespace gossip
