#include "mobility/fcd.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace roadrunner::mobility {

namespace {

struct Attr {
  std::string name;
  std::string value;
};

struct Tag {
  std::string name;
  std::vector<Attr> attrs;
  bool closing = false;       // </name>
  bool self_closing = false;  // <name/>
  std::size_t line = 1;
};

/// Tokenizer for the XML subset FCD exports use: tags, attributes,
/// declarations, and comments. Text content between tags is whitespace in
/// real exports and is skipped either way.
class XmlScanner {
 public:
  XmlScanner(std::string text, std::string path)
      : text_{std::move(text)}, path_{std::move(path)} {}

  [[noreturn]] void fail(std::size_t line, const std::string& msg) const {
    throw std::runtime_error{"fcd: " + path_ + ":" + std::to_string(line) +
                             ": " + msg};
  }

  /// Next element tag, or nullopt at end of input.
  std::optional<Tag> next() {
    for (;;) {
      skip_until_open();
      if (pos_ >= text_.size()) return std::nullopt;
      const std::size_t line = line_;
      ++pos_;  // consume '<'
      if (starts_with("?")) {
        skip_past("?>", line, "unterminated <? declaration");
        continue;
      }
      if (starts_with("!--")) {
        skip_past("-->", line, "unterminated comment");
        continue;
      }
      Tag tag;
      tag.line = line;
      if (starts_with("/")) {
        ++pos_;
        tag.closing = true;
      }
      tag.name = read_name(line);
      skip_space();
      while (pos_ < text_.size() && text_[pos_] != '>' &&
             text_[pos_] != '/') {
        Attr a;
        a.name = read_name(line_);
        skip_space();
        if (pos_ >= text_.size() || text_[pos_] != '=') {
          fail(line_, "attribute '" + a.name + "' missing '='");
        }
        ++pos_;
        skip_space();
        if (pos_ >= text_.size() ||
            (text_[pos_] != '"' && text_[pos_] != '\'')) {
          fail(line_, "attribute '" + a.name + "' value must be quoted");
        }
        const char quote = text_[pos_++];
        const std::size_t begin = pos_;
        while (pos_ < text_.size() && text_[pos_] != quote) advance();
        if (pos_ >= text_.size()) {
          fail(line, "unterminated value for attribute '" + a.name + "'");
        }
        a.value = text_.substr(begin, pos_ - begin);
        ++pos_;  // closing quote
        skip_space();
        tag.attrs.push_back(std::move(a));
      }
      if (pos_ < text_.size() && text_[pos_] == '/') {
        ++pos_;
        tag.self_closing = true;
        if (tag.closing) fail(line, "malformed tag </" + tag.name + "/>");
      }
      if (pos_ >= text_.size() || text_[pos_] != '>') {
        fail(line, "unterminated tag <" + tag.name + ">");
      }
      ++pos_;
      return tag;
    }
  }

 private:
  void advance() {
    if (text_[pos_] == '\n') ++line_;
    ++pos_;
  }

  void skip_until_open() {
    while (pos_ < text_.size() && text_[pos_] != '<') advance();
  }

  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      advance();
    }
  }

  void skip_past(const std::string& end, std::size_t line,
                 const std::string& msg) {
    const std::size_t found = text_.find(end, pos_);
    if (found == std::string::npos) fail(line, msg);
    for (std::size_t i = pos_; i < found + end.size(); ++i) {
      if (text_[i] == '\n') ++line_;
    }
    pos_ = found + end.size();
  }

  [[nodiscard]] bool starts_with(const std::string& prefix) const {
    return text_.compare(pos_, prefix.size(), prefix) == 0;
  }

  std::string read_name(std::size_t line) {
    const std::size_t begin = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' ||
          c == '_' || c == ':' || c == '.') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == begin) fail(line, "expected a tag or attribute name");
    return text_.substr(begin, pos_ - begin);
  }

  std::string text_;
  std::string path_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
};

const std::string* find_attr(const Tag& tag, const std::string& name) {
  for (const Attr& a : tag.attrs) {
    if (a.name == name) return &a.value;
  }
  return nullptr;
}

double parse_number(const XmlScanner& scan, const Tag& tag,
                    const std::string& attr, const std::string& value) {
  const char* begin = value.c_str();
  char* end = nullptr;
  const double parsed = std::strtod(begin, &end);
  if (end == begin || *end != '\0') {
    scan.fail(tag.line, "<" + tag.name + "> attribute " + attr + "=\"" +
                            value + "\" is not a number");
  }
  if (!std::isfinite(parsed)) {
    scan.fail(tag.line, "<" + tag.name + "> attribute " + attr + "=\"" +
                            value + "\" must be finite");
  }
  return parsed;
}

}  // namespace

FleetModel load_fleet_fcd(const std::string& path, const FcdOptions& options) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"fcd: cannot open " + path};
  std::ostringstream buf;
  buf << in.rdbuf();
  return load_fleet_fcd_text(buf.str(), options, path);
}

FleetModel load_fleet_fcd_text(const std::string& xml,
                               const FcdOptions& options,
                               const std::string& path) {
  XmlScanner scan{xml, path};

  std::optional<Tag> root = scan.next();
  if (!root || root->closing || root->name != "fcd-export") {
    scan.fail(root ? root->line : 1, "expected <fcd-export> root element");
  }
  if (root->self_closing) {
    scan.fail(root->line, "<fcd-export> holds no timesteps");
  }

  struct RawSample {
    double t, x, y;
  };
  std::vector<std::vector<RawSample>> samples;  // dense, first-appearance
  std::vector<std::string> names;
  std::map<std::string, std::size_t> index_of;
  std::vector<double> times;

  bool root_closed = false;
  double current_time = 0.0;
  bool in_timestep = false;
  std::size_t timestep_line = 0;
  // Vehicles already seen in the open timestep (SUMO emits each at most
  // once per step; a repeat would produce a duplicate trace timestamp).
  std::vector<std::size_t> seen_this_step;

  for (;;) {
    std::optional<Tag> tag = scan.next();
    if (!tag) {
      if (in_timestep) {
        scan.fail(timestep_line, "unclosed <timestep> element");
      }
      scan.fail(root->line, "unclosed <fcd-export> element");
    }
    if (tag->closing) {
      if (tag->name == "timestep") {
        if (!in_timestep) scan.fail(tag->line, "stray </timestep>");
        in_timestep = false;
        continue;
      }
      if (tag->name == "fcd-export") {
        if (in_timestep) {
          scan.fail(timestep_line, "unclosed <timestep> element");
        }
        root_closed = true;
        break;
      }
      scan.fail(tag->line, "unexpected closing tag </" + tag->name + ">");
    }
    if (tag->name == "timestep") {
      if (in_timestep) {
        scan.fail(tag->line, "<timestep> nested inside <timestep>");
      }
      const std::string* time = find_attr(*tag, "time");
      if (time == nullptr) {
        scan.fail(tag->line, "<timestep> missing time attribute");
      }
      const double t = parse_number(scan, *tag, "time", *time);
      if (!times.empty() && t <= times.back()) {
        scan.fail(tag->line, "timestep time " + *time +
                                 " is not after the previous timestep");
      }
      times.push_back(t);
      current_time = t;
      seen_this_step.clear();
      if (!tag->self_closing) {
        in_timestep = true;
        timestep_line = tag->line;
      }
      continue;
    }
    if (tag->name == "vehicle") {
      if (!in_timestep) {
        scan.fail(tag->line, "<vehicle> outside a <timestep>");
      }
      const std::string* id = find_attr(*tag, "id");
      const std::string* x = find_attr(*tag, "x");
      const std::string* y = find_attr(*tag, "y");
      if (id == nullptr || x == nullptr || y == nullptr) {
        scan.fail(tag->line, "<vehicle> needs id, x, and y attributes");
      }
      auto [it, inserted] = index_of.try_emplace(*id, names.size());
      if (inserted) {
        names.push_back(*id);
        samples.emplace_back();
      }
      const std::size_t v = it->second;
      if (std::find(seen_this_step.begin(), seen_this_step.end(), v) !=
          seen_this_step.end()) {
        scan.fail(tag->line,
                  "vehicle '" + *id + "' appears twice in one timestep");
      }
      seen_this_step.push_back(v);
      samples[v].push_back(RawSample{current_time,
                                     parse_number(scan, *tag, "x", *x),
                                     parse_number(scan, *tag, "y", *y)});
      if (!tag->self_closing) {
        std::optional<Tag> close = scan.next();
        if (!close || !close->closing || close->name != "vehicle") {
          scan.fail(tag->line, "unclosed <vehicle> element");
        }
      }
      continue;
    }
    scan.fail(tag->line, "unexpected element <" + tag->name + ">");
  }
  if (!root_closed || times.empty()) {
    scan.fail(root->line, "<fcd-export> holds no timesteps");
  }
  if (names.empty()) {
    scan.fail(root->line, "FCD export holds no vehicles");
  }

  // Sample spacing: one interval past a vehicle's last sample still counts
  // as ON (the export reports the step's *start*). Falls back to 1 s for a
  // single-timestep file.
  const double dt = times.size() >= 2 ? times[1] - times[0] : 1.0;

  GeoPoint origin{};
  if (options.geo) {
    // Geo exports carry x=longitude, y=latitude.
    origin = options.origin.value_or(
        GeoPoint{samples.front().front().y, samples.front().front().x});
  }

  std::vector<VehicleTrack> tracks;
  tracks.reserve(names.size());
  for (std::size_t v = 0; v < names.size(); ++v) {
    const std::vector<RawSample>& raw = samples[v];
    std::vector<TraceSample> ts;
    ts.reserve(raw.size());
    std::vector<OnInterval> on;
    double run_start = raw.front().t;
    double prev_t = raw.front().t;
    for (const RawSample& s : raw) {
      if (s.t - prev_t > options.gap_threshold_s) {
        on.push_back({run_start, prev_t + dt});
        run_start = s.t;
      }
      prev_t = s.t;
      const Position p = options.geo
                             ? project(GeoPoint{s.y, s.x}, origin)
                             : Position{s.x, s.y};
      ts.push_back({s.t, p});
    }
    on.push_back({run_start, prev_t + dt});
    // Finite input can still overflow (a projection, or a step past the
    // largest double); Trace and IgnitionSchedule reject the non-finite
    // result, reported here like any other malformed export.
    try {
      tracks.push_back(
          VehicleTrack{Trace{std::move(ts)}, IgnitionSchedule{std::move(on)}});
    } catch (const std::invalid_argument& e) {
      scan.fail(root->line, "vehicle '" + names[v] + "': " + e.what());
    }
  }
  return FleetModel{std::move(tracks)};
}

}  // namespace roadrunner::mobility
