// The regression corpus: every counterexample the shrinker minimizes is
// written as a standalone BLIF file whose leading '#' comment lines
// record the full replay recipe — mapper options, backend set, injected
// fault (if the failure was an injected one), and whether the oracle is
// expected to pass or fail. tests/corpus/ is scanned by
// fuzz_regression_test, so each reproducer stays red (or green) forever.
#pragma once

#include <string>
#include <vector>

#include "fuzz/fuzz_case.hpp"
#include "fuzz/oracle.hpp"

namespace chortle::fuzz {

struct CorpusEntry {
  std::string name;           // file stem, also the BLIF model name
  FuzzCase fuzz_case;
  Injection injection;        // replayed through the oracle
  bool expect_failure = false;
  std::string note;           // free text (usually the verdict summary)
};

/// Serializes an entry to its on-disk form (metadata header + BLIF).
std::string encode_entry(const CorpusEntry& entry);

/// Parses the on-disk form. Unknown header lines are ignored so the
/// format can grow, but every `options:`/`inject:` key must be known and
/// every value wholly a number in range, and every `backends:` name must
/// be a registered mapper. Throws InvalidInput on malformed content.
CorpusEntry decode_entry(const std::string& text, const std::string& name);

/// Writes `entry` into `directory` (created if missing) as
/// `<name>.blif`; returns the full path.
std::string write_entry(const std::string& directory,
                        const CorpusEntry& entry);

/// Loads every *.blif under `directory`, sorted by file name. A missing
/// directory is an empty corpus.
std::vector<CorpusEntry> load_corpus(const std::string& directory);

/// Replays an entry through the oracle with its recorded injection.
Verdict replay_entry(const CorpusEntry& entry,
                     OracleOptions options = {});

}  // namespace chortle::fuzz
