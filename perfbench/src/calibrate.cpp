#include "calibrate.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "stats.h"

namespace perfbench {

uint64_t
referenceWork()
{
    // Storage is allocated on the first call and reused, so probing
    // leaves the program's heap as it found it.
    using Event = std::pair<double, uint32_t>;
    constexpr int kEvents = 8192;
    constexpr int kInserts = 6000;
    constexpr uint32_t kSlots = 1u << 14; // power of two, > kInserts
    static std::vector<Event> events(kEvents);
    static std::vector<uint32_t> slot_key(kSlots);
    static std::vector<uint64_t> slot_count(kSlots);
    static std::vector<uint32_t> keys(kInserts);

    // An event heap that pops every other push, as a discrete-event
    // loop does.
    auto later = std::greater<Event>();
    size_t queued = 0;
    double now = 0.0, acc = 0.0;
    uint32_t id = 7;
    for (int i = 0; i < kEvents; ++i) {
        id = id * 1664525u + 1013904223u;
        events[queued++] = {now + 1.0 + (id >> 8) * 1e-7, id};
        std::push_heap(events.begin(), events.begin() + queued, later);
        if (i % 2) {
            std::pop_heap(events.begin(), events.begin() + queued, later);
            const Event &next = events[--queued];
            now = next.first;
            acc += std::log1p(now) *
                   std::sqrt(static_cast<double>(next.second & 1023));
        }
    }

    // A hash table (open addressing; key 0 marks a free slot) that
    // grows while it is read, then a sort.
    std::fill(slot_key.begin(), slot_key.end(), 0u);
    auto slot = [&](uint32_t key) {
        uint32_t at = (key * 2654435761u) & (kSlots - 1);
        while (slot_key[at] != 0 && slot_key[at] != key)
            at = (at + 1) & (kSlots - 1);
        return at;
    };
    uint64_t hits = 0;
    int64_t distinct = 0;
    for (int i = 0; i < kInserts; ++i) {
        id = id * 1664525u + 1013904223u;
        uint32_t key = (id >> 12) | 1u;
        uint32_t at = slot(key);
        if (slot_key[at] == 0) {
            slot_key[at] = key;
            slot_count[at] = 0;
            ++distinct;
        }
        slot_count[at] += static_cast<uint64_t>(i);
        keys[static_cast<size_t>(i)] = id;
        if (i % 3 == 0) {
            uint32_t seen = (keys[(id >> 5) % (i + 1)] >> 12) | 1u;
            uint32_t found = slot(seen);
            if (slot_key[found] == seen)
                hits += slot_count[found];
        }
    }
    std::sort(keys.begin(), keys.end());
    return static_cast<uint64_t>(acc) ^ queued ^ hits ^
           keys[keys.size() / 2] ^ static_cast<uint64_t>(distinct);
}

double
referenceSlowdown(int calls)
{
    static volatile uint64_t sink = 0;
    std::vector<double> times;
    times.reserve(static_cast<size_t>(calls));
    for (int i = 0; i < calls; ++i) {
        auto t0 = std::chrono::steady_clock::now();
        sink = sink + referenceWork();
        times.push_back(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
    }
    return median(times) / kReferenceSeconds;
}

double
atReferenceSpeed(double seconds, double before, double after)
{
    return seconds / std::sqrt(before * after);
}

} // namespace perfbench
