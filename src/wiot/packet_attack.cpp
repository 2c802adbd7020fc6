#include "wiot/packet_attack.hpp"

#include "core/splitmix.hpp"

namespace sift::wiot {

const char* to_string(StreamAttackKind k) noexcept {
  switch (k) {
    case StreamAttackKind::kSeqSpoof:
      return "seq-spoof";
    case StreamAttackKind::kReplayPastCursor:
      return "replay-past-cursor";
    case StreamAttackKind::kStaleCursorResume:
      return "stale-cursor-resume";
    case StreamAttackKind::kDuplicateFlood:
      return "duplicate-flood";
  }
  return "unknown";
}

std::vector<Packet> apply_stream_attack(const std::vector<Packet>& clean,
                                        const StreamAttackConfig& config,
                                        StreamAttackStats* stats) {
  std::vector<Packet> out;
  out.reserve(clean.size() + clean.size() / 4 + 1);
  StreamAttackStats local;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    const Packet& p = clean[i];
    if (config.kind == StreamAttackKind::kStaleCursorResume &&
        i == config.onset && i > 0) {
      // The cloned/rolled-back device comes online and re-sends everything
      // from its stale cursor before catching up.
      for (std::size_t j = 0; j < i; ++j) {
        out.push_back(clean[j]);
        ++local.injected;
      }
    }
    if (config.kind == StreamAttackKind::kSeqSpoof && i >= config.onset &&
        core::coin(config.probability, config.seed, i, /*salt=*/1)) {
      // A forged packet claiming a far-future position arrives just before
      // the genuine one. If accepted it drags the channel cursor (and the
      // durability dedupe cursor) into the future, orphaning real traffic.
      Packet forged = p;
      forged.seq += config.spoof_jump;
      out.push_back(std::move(forged));
      ++local.injected;
    }
    out.push_back(p);
    ++local.clean;
    switch (config.kind) {
      case StreamAttackKind::kReplayPastCursor:
        if (i >= config.onset && i >= config.replay_depth &&
            core::coin(config.probability, config.seed, i, /*salt=*/2)) {
          for (std::size_t b = 0; b < config.burst; ++b) {
            const std::size_t src = i - config.replay_depth + b;
            if (src >= i) break;
            out.push_back(clean[src]);
            ++local.injected;
          }
        }
        break;
      case StreamAttackKind::kDuplicateFlood:
        if (i >= config.onset &&
            core::coin(config.probability, config.seed, i, /*salt=*/3)) {
          for (std::size_t b = 0; b < config.burst; ++b) {
            out.push_back(p);
            ++local.injected;
          }
        }
        break;
      default:
        break;
    }
  }
  if (stats) *stats = local;
  return out;
}

}  // namespace sift::wiot
