#include "fuzz/corpus.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "base/check.hpp"
#include "base/parse.hpp"
#include "blif/blif.hpp"

namespace chortle::fuzz {
namespace {

std::vector<std::string> split(const std::string& text, char separator) {
  std::vector<std::string> parts;
  std::istringstream in(text);
  std::string part;
  while (std::getline(in, part, separator))
    if (!part.empty()) parts.push_back(part);
  return parts;
}

const core::IMapper* mapper_from_name(const std::string& name) {
  portfolio::ensure_registered();
  const core::IMapper* mapper = core::find_mapper(name);
  if (mapper == nullptr)
    throw InvalidInput("reproducer names unknown mapper '" + name +
                       "' (known: " + core::mapper_names() + ")");
  return mapper;
}

/// The whole of `text` as a T in [lo, hi]; InvalidInput otherwise.
template <typename T>
T number_of(const std::string& key, const std::string& text,
            std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
            std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  T value{};
  if (!base::parse_number(text, value, lo, hi))
    throw InvalidInput("reproducer value " + key + "=" + text +
                       " is not a number in range");
  return value;
}

/// "k=4 split=10 ..." -> key/value pairs.
std::vector<std::pair<std::string, std::string>> parse_assignments(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> result;
  for (const std::string& token : split(text, ' ')) {
    const auto equals = token.find('=');
    CHORTLE_REQUIRE(equals != std::string::npos && equals > 0,
                    "malformed reproducer assignment '" + token + "'");
    result.emplace_back(token.substr(0, equals), token.substr(equals + 1));
  }
  return result;
}

}  // namespace

std::string encode_entry(const CorpusEntry& entry) {
  const core::Options& o = entry.fuzz_case.options;
  std::ostringstream os;
  os << "# chortle-fuzz reproducer v1\n";
  os << "# expect: " << (entry.expect_failure ? "fail" : "pass") << "\n";
  os << "# backends: ";
  for (std::size_t i = 0; i < entry.fuzz_case.backends.size(); ++i)
    os << (i > 0 ? "," : "") << entry.fuzz_case.backends[i]->name();
  os << "\n";
  os << "# options: k=" << o.k << " split=" << o.split_threshold
     << " search=" << (o.search_decompositions ? 1 : 0)
     << " dup=" << (o.duplicate_fanout_logic ? 1 : 0)
     << " dup_gates=" << o.duplication_max_gates
     << " dup_readers=" << o.duplication_max_readers << "\n";
  if (entry.injection.enabled)
    os << "# inject: lut=" << entry.injection.lut_index
       << " bit=" << entry.injection.bit_index << "\n";
  if (!entry.note.empty()) os << "# note: " << entry.note << "\n";
  os << blif::write_blif_string(entry.fuzz_case.network, entry.name);
  return os.str();
}

CorpusEntry decode_entry(const std::string& text, const std::string& name) {
  CorpusEntry entry;
  entry.name = name;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] != '#') break;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = line.substr(1, colon - 1);
    key.erase(std::remove(key.begin(), key.end(), ' '), key.end());
    std::string value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.erase(0, 1);
    if (key == "expect") {
      CHORTLE_REQUIRE(value == "fail" || value == "pass",
                      "reproducer expect must be 'fail' or 'pass'");
      entry.expect_failure = value == "fail";
    } else if (key == "backends") {
      entry.fuzz_case.backends.clear();
      for (const std::string& backend_name : split(value, ','))
        entry.fuzz_case.backends.push_back(mapper_from_name(backend_name));
    } else if (key == "options") {
      core::Options& o = entry.fuzz_case.options;
      for (const auto& [option, text_value] : parse_assignments(value)) {
        const auto number = [&](int lo = std::numeric_limits<int>::min(),
                                int hi = std::numeric_limits<int>::max()) {
          return number_of<int>(option, text_value, lo, hi);
        };
        if (option == "k") o.k = number();
        else if (option == "split") o.split_threshold = number();
        else if (option == "search") o.search_decompositions = number(0, 1);
        else if (option == "dup") o.duplicate_fanout_logic = number(0, 1);
        else if (option == "dup_gates") o.duplication_max_gates = number();
        else if (option == "dup_readers") o.duplication_max_readers = number();
        else throw InvalidInput("unknown reproducer option '" + option + "'");
      }
    } else if (key == "inject") {
      entry.injection.enabled = true;
      for (const auto& [option, text_value] : parse_assignments(value)) {
        if (option == "lut")
          entry.injection.lut_index = number_of<int>(option, text_value, 0);
        else if (option == "bit")
          entry.injection.bit_index =
              number_of<std::uint64_t>(option, text_value);
        else throw InvalidInput("unknown reproducer inject key '" + option +
                                "'");
      }
    } else if (key == "note") {
      entry.note = value;
    }
  }
  entry.fuzz_case.network = blif::read_blif_string(text).network;
  entry.fuzz_case.description = "corpus:" + name;
  return entry;
}

std::string write_entry(const std::string& directory,
                        const CorpusEntry& entry) {
  namespace fs = std::filesystem;
  fs::create_directories(directory);
  const fs::path path = fs::path(directory) / (entry.name + ".blif");
  std::ofstream out(path);
  CHORTLE_REQUIRE(static_cast<bool>(out),
                  "cannot write reproducer " + path.string());
  out << encode_entry(entry);
  return path.string();
}

std::vector<CorpusEntry> load_corpus(const std::string& directory) {
  namespace fs = std::filesystem;
  std::vector<CorpusEntry> entries;
  if (!fs::is_directory(directory)) return entries;
  std::vector<fs::path> paths;
  for (const auto& item : fs::directory_iterator(directory))
    if (item.is_regular_file() && item.path().extension() == ".blif")
      paths.push_back(item.path());
  std::sort(paths.begin(), paths.end());
  for (const fs::path& path : paths) {
    std::ifstream in(path);
    CHORTLE_REQUIRE(static_cast<bool>(in),
                    "cannot read reproducer " + path.string());
    std::ostringstream text;
    text << in.rdbuf();
    entries.push_back(decode_entry(text.str(), path.stem().string()));
  }
  return entries;
}

Verdict replay_entry(const CorpusEntry& entry, OracleOptions options) {
  options.injection = entry.injection;
  return check_case(entry.fuzz_case, options);
}

}  // namespace chortle::fuzz
