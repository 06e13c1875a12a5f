// Seeded text mutations for parser fuzz tests: each call applies one edit
// drawn from `rng` — a character swapped for one of `alphabet`, one
// inserted, one deleted, the text truncated, or a short slice repeated in
// place — so a valid document turns into a near-miss its parser must either
// accept or reject cleanly.
#pragma once

#include <string>
#include <string_view>

#include "common/rng.hpp"

namespace srcache::testutil {

inline void mutate_text(std::string& s, common::Xoshiro256& rng,
                        std::string_view alphabet) {
  const auto pick = [&] { return alphabet[rng.below(alphabet.size())]; };
  const size_t at = s.empty() ? 0 : rng.below(s.size());
  switch (rng.below(5)) {
    case 0:
      if (!s.empty()) s[at] = pick();
      break;
    case 1:
      s.insert(s.begin() + static_cast<long>(at), pick());
      break;
    case 2:
      if (!s.empty()) s.erase(at, 1);
      break;
    case 3:
      s.resize(at);
      break;
    default:
      s.insert(at, s.substr(at, 1 + rng.below(8)));
      break;
  }
}

}  // namespace srcache::testutil
