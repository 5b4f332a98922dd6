#include "atomicity.hpp"

#include <cstring>

#include "common/contracts.hpp"

namespace tbrbench {

namespace {

constexpr std::size_t kHeader = 8;

std::string where(std::uint32_t reg) {
  return "register " + std::to_string(reg) + ": ";
}

std::uint8_t filler(std::uint32_t reg, std::uint32_t c, std::size_t i) {
  return static_cast<std::uint8_t>(reg * 167u + c * 31u +
                                   static_cast<std::uint32_t>(i) * 7u);
}

}  // namespace

void encode_value(std::uint32_t reg, std::uint32_t c, std::size_t size,
                  tbr::Value& out) {
  TBR_ENSURE(size >= kHeader, "benchmark values carry an 8-byte header");
  std::string& bytes = out.mutable_bytes();
  bytes.resize(size);
  std::memcpy(bytes.data(), &reg, 4);
  std::memcpy(bytes.data() + 4, &c, 4);
  for (std::size_t i = kHeader; i < size; ++i) {
    bytes[i] = static_cast<char>(filler(reg, c, i));
  }
}

AtomicityCheck::AtomicityCheck(std::uint32_t registers, std::uint32_t window,
                               std::size_t value_bytes)
    : window_(window),
      value_bytes_(value_bytes),
      regs_(new Register[registers]),
      register_count_(registers) {
  TBR_ENSURE(registers >= 1 && window >= 2, "bad atomicity check shape");
  for (std::uint32_t r = 0; r < registers; ++r) regs_[r].ring.resize(window);
}

std::uint32_t AtomicityCheck::begin_put(std::uint32_t reg) {
  return regs_[reg].submitted.fetch_add(1, std::memory_order_acq_rel) + 1;
}

std::uint32_t AtomicityCheck::begin_read(std::uint32_t reg) const {
  return regs_[reg].completed_max.load(std::memory_order_acquire);
}

void AtomicityCheck::raise_to(std::atomic<std::uint32_t>& a,
                              std::uint32_t v) {
  std::uint32_t cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_acq_rel)) {
  }
}

void AtomicityCheck::end_put(std::uint32_t reg, std::uint32_t c,
                             std::int64_t version, bool absorbed) {
  Register& r = regs_[reg];
  const std::scoped_lock lock(r.mu);
  if (version != static_cast<std::int64_t>(r.landed) + 1) {
    violation("register " + std::to_string(reg) + ": put " +
              std::to_string(c) + " reports version " +
              std::to_string(version) + ", expected " +
              std::to_string(r.landed + 1));
    return;
  }
  if (c <= r.last_landed_put) {
    violation("register " + std::to_string(reg) + ": put " +
              std::to_string(c) + " completed after later put " +
              std::to_string(r.last_landed_put) + " landed");
    return;
  }
  const auto v = static_cast<std::uint32_t>(version);
  if (!absorbed) {
    Entry& e = r.ring[v % window_];
    if (e.used && !e.landed) {
      if (e.version != v) {
        violation("register " + std::to_string(reg) + ": a read's claim on "
                  "version " + std::to_string(e.version) +
                  " left the check window unsettled");
      } else if (e.put != c) {
        violation("C0: register " + std::to_string(reg) + ": a read "
                  "returned put " + std::to_string(e.put) + " as version " +
                  std::to_string(v) + ", which put " + std::to_string(c) +
                  " landed as");
      }
    }
    e = Entry{v, c, true, true};
    r.landed = v;
    r.last_landed_put = c;
  }
  raise_to(r.completed_max, v);
}

void AtomicityCheck::end_read(std::uint32_t reg, std::uint32_t floor,
                              std::int64_t version, const tbr::Value& value) {
  Register& r = regs_[reg];
  if (version < 0 || version > 0xFFFFFFFFll) {
    violation(where(reg) + "read returned version " +
              std::to_string(version));
    return;
  }
  const auto v = static_cast<std::uint32_t>(version);
  std::uint32_t c = 0;
  if (v == 0) {
    if (!value.empty()) {
      violation("C0: " + where(reg) + "version 0 with a non-initial value");
      return;
    }
  } else {
    const std::string& b = value.bytes();
    std::uint32_t owner = 0;
    bool ok = b.size() == value_bytes_;
    if (ok) {
      std::memcpy(&owner, b.data(), 4);
      std::memcpy(&c, b.data() + 4, 4);
      ok = owner == reg && c >= 1;
      for (std::size_t i = kHeader; ok && i < b.size(); ++i) {
        ok = static_cast<std::uint8_t>(b[i]) == filler(owner, c, i);
      }
    }
    if (!ok) {
      violation("C0: " + where(reg) + "version " + std::to_string(v) +
                " carries a value no put of this register wrote");
      return;
    }
    if (c > r.submitted.load(std::memory_order_acquire)) {
      violation("C1: " + where(reg) + "read returned put " +
                std::to_string(c) + " before it was submitted");
      return;
    }
  }
  if (v < floor) {
    violation("C2/C3: " + where(reg) + "read returned version " +
              std::to_string(v) + " but version " + std::to_string(floor) +
              " had completed before it was submitted");
    return;
  }
  if (v > 0) {
    const std::scoped_lock lock(r.mu);
    Entry& e = r.ring[v % window_];
    if (v <= r.landed) {
      if (!(e.used && e.landed && e.version == v)) {
        violation(where(reg) + "read returned version " +
                  std::to_string(v) + ", older than the check window (latest " +
                  std::to_string(r.landed) + ")");
      } else if (e.put != c) {
        violation("C0: " + where(reg) + "read returned put " +
                  std::to_string(c) + " as version " + std::to_string(v) +
                  ", which put " + std::to_string(e.put) + " landed as");
      }
    } else if (v - r.landed >= window_) {
      violation(where(reg) + "read returned version " +
                std::to_string(v) + ", beyond the check window (latest " +
                std::to_string(r.landed) + ")");
    } else if (e.used && !e.landed) {
      if (e.version != v) {
        violation(where(reg) +
                  "two unsettled claims share a check-window slot");
      } else if (e.put != c) {
        violation("C0: " + where(reg) +
                  "reads disagree on the value of version " +
                  std::to_string(v));
      }
    } else {
      e = Entry{v, c, false, true};
    }
  }
  raise_to(r.completed_max, v);
}

void AtomicityCheck::finish() {
  for (std::uint32_t reg = 0; reg < register_count_; ++reg) {
    Register& r = regs_[reg];
    const std::scoped_lock lock(r.mu);
    for (const Entry& e : r.ring) {
      if (e.used && !e.landed) {
        violation("register " + std::to_string(reg) + ": a read returned "
                  "version " + std::to_string(e.version) +
                  ", which no put landed as");
      }
    }
  }
}

void AtomicityCheck::violation(const std::string& what) {
  violations_.fetch_add(1, std::memory_order_relaxed);
  const std::scoped_lock lock(error_mu_);
  if (first_error_.empty()) first_error_ = what;
}

std::string AtomicityCheck::first_violation() const {
  const std::scoped_lock lock(error_mu_);
  return first_error_;
}

}  // namespace tbrbench
