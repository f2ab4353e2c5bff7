// Fixture pair with relay.hpp, which holds every annotation (see there).
#include "relay.hpp"

namespace fixture {

// By-reference alias of the header's shard-owned mailbox. Flagged.
void Relay::forward() {
  sim_.schedule_at(10, [&box = outbox_] { box.clear(); });  // L9
}

// Reaches the mailbox through drain(), defined below. Flagged at the call.
void Relay::flush() {
  sim_.schedule_at(10, [this] { drain(); });  // L9
}

void Relay::drain() { outbox_.clear(); }

// The header's guarded counter, touched without its lock. Flagged.
void Relay::count() { sent_ += 1; }  // L6

}  // namespace fixture
