#include "util.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::int64_t g_process_start_ns = 0;

std::int64_t slice_count(std::int64_t window_ns, std::int64_t nominal_ns) {
  return std::max(kMinSlices, window_ns / nominal_ns);
}

std::int64_t slice_length_ns(std::int64_t window_ns, std::int64_t nominal_ns) {
  const std::int64_t length = window_ns / slice_count(window_ns, nominal_ns);
  return std::max(RateBuckets::kBucketNs,
                  length / RateBuckets::kBucketNs * RateBuckets::kBucketNs);
}

double interquartile_mean(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t drop = values.size() / 4;
  double sum = 0;
  for (std::size_t i = drop; i < values.size() - drop; ++i) {
    sum += values[i];
  }
  return sum / static_cast<double>(values.size() - 2 * drop);
}

int Histogram::index_of(std::uint64_t value) {
  if (value < 128) {
    return static_cast<int>(value);
  }
  const int exponent = 63 - std::countl_zero(value);  // >= 7
  const int shift = exponent - 6;
  const auto sub = static_cast<int>(value >> shift);  // [64, 128)
  const int index = 128 + (exponent - 7) * kSub + (sub - kSub);
  return index < kBuckets ? index : kBuckets - 1;
}

double Histogram::midpoint(int index) {
  if (index < 128) {
    return index;
  }
  const int exponent = 7 + (index - 128) / kSub;
  const int sub = kSub + (index - 128) % kSub;
  const int shift = exponent - 6;
  const double low = std::ldexp(static_cast<double>(sub), shift);
  return low + std::ldexp(0.5, shift);
}

void Histogram::record(std::int64_t value) {
  buckets_[static_cast<std::size_t>(
      index_of(value < 0 ? 0 : static_cast<std::uint64_t>(value)))] += 1;
  count_ += 1;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  // Rank of the q-quantile sample (1-based, nearest-rank definition).
  auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_));
  if (rank < 1) {
    rank = 1;
  }
  if (rank > count_) {
    rank = count_;
  }
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      return midpoint(static_cast<int>(i));
    }
  }
  return midpoint(kBuckets - 1);
}

void RateBuckets::merge(const RateBuckets& other) {
  for (std::size_t i = 0; i < counts_.size() && i < other.counts_.size();
       ++i) {
    counts_[i] += other.counts_[i];
  }
}

std::uint64_t RateBuckets::between(std::int64_t start,
                                   std::int64_t end) const {
  std::uint64_t total = 0;
  for (std::int64_t i = start / kBucketNs;
       i < end / kBucketNs && i < static_cast<std::int64_t>(counts_.size());
       ++i) {
    total += counts_[static_cast<std::size_t>(i)];
  }
  return total;
}

std::string RateBuckets::per_second(std::int64_t window_ns) const {
  std::string out;
  for (std::int64_t t = 0; t + 1'000'000'000 <= window_ns;
       t += 1'000'000'000) {
    out += (out.empty() ? "" : " ") +
           std::to_string(between(t, t + 1'000'000'000));
  }
  return out;
}

void LatencySlices::merge(const LatencySlices& other) {
  for (std::size_t i = 0; i < slices_.size(); ++i) {
    if (other.slices_[i] == nullptr) {
      continue;
    }
    if (slices_[i] == nullptr) {
      slices_[i] = std::make_unique<Histogram>();
    }
    slices_[i]->merge(*other.slices_[i]);
  }
}

Histogram LatencySlices::all() const {
  Histogram total;
  for (const auto& slice : slices_) {
    if (slice != nullptr) {
      total.merge(*slice);
    }
  }
  return total;
}

std::vector<Histogram> LatencySlices::groups() const {
  std::vector<Histogram> groups;
  Histogram open;
  for (const auto& slice : slices_) {
    if (slice == nullptr) {
      continue;
    }
    open.merge(*slice);
    if (open.count() >= kTailSamples) {
      groups.push_back(open);
      open = Histogram();
    }
  }
  if (open.count() > 0) {
    if (groups.empty()) {
      groups.push_back(open);
    } else {
      groups.back().merge(open);
    }
  }
  return groups;
}

double LatencySlices::interquartile_mean_group_quantile(double q) const {
  std::vector<double> values;
  for (const Histogram& group : groups()) {
    values.push_back(group.quantile(q));
  }
  return interquartile_mean(std::move(values));
}

double RateBuckets::interquartile_mean_rate(std::int64_t window_ns) const {
  const std::int64_t slice_ns = slice_length_ns(window_ns, kRateSliceNs);
  std::vector<double> rates;
  for (std::int64_t i = 0; i < slice_count(window_ns, kRateSliceNs); ++i) {
    rates.push_back(static_cast<double>(
                        between(i * slice_ns, (i + 1) * slice_ns)) *
                    1e9 / static_cast<double>(slice_ns));
  }
  return interquartile_mean(std::move(rates));
}

double machine_steal_ms() {
  // First line of /proc/stat: "cpu user nice system idle iowait irq
  // softirq steal ...", in clock ticks summed over every CPU.
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t value = 0;
  stat >> cpu;
  for (int field = 0; field < 8 && (stat >> value); ++field) {
  }
  return static_cast<double>(value) * 1e3 /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double process_cpu_ms() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

std::vector<std::uint16_t> reserve_udp_ports(std::size_t count) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) {
      break;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      ::close(fd);
      break;
    }
    fds.push_back(fd);  // held until all are bound: ports stay distinct
    ports.push_back(ntohs(bound.sin_port));
  }
  for (const int fd : fds) {
    ::close(fd);
  }
  if (ports.size() != count) {
    throw std::runtime_error("cannot reserve loopback UDP ports");
  }
  return ports;
}

}  // namespace perfbench
