#include "cost/cost_model.hpp"

#include <stdexcept>

namespace srcache::cost {

double lifetime_days(const ArrayConfig& array, double daily_write_bytes,
                     double write_amplification) {
  if (daily_write_bytes <= 0.0 || write_amplification <= 0.0)
    throw std::invalid_argument("lifetime_days: non-positive inputs");
  const double endurance_bytes =
      static_cast<double>(array.spec.endurance_cycles) *
      array.total_capacity_bytes();
  return endurance_bytes / (daily_write_bytes * write_amplification);
}

CostReport evaluate(const ArrayConfig& array, double throughput_mbps,
                    double daily_write_bytes, double write_amplification) {
  CostReport r;
  r.throughput_mbps = throughput_mbps;
  r.mbps_per_dollar = throughput_mbps / array.total_price();
  r.lifetime_days =
      lifetime_days(array, daily_write_bytes, write_amplification);
  r.lifetime_days_per_dollar = r.lifetime_days / array.total_price();
  return r;
}

double effective_capacity_bytes(const ArrayConfig& array,
                                double tier_budget_bytes,
                                double compression_ratio) {
  if (tier_budget_bytes < 0.0 || compression_ratio <= 0.0 ||
      compression_ratio > 1.0)
    throw std::invalid_argument("effective_capacity_bytes: bad tier inputs");
  return array.total_capacity_bytes() + tier_budget_bytes / compression_ratio;
}

double effective_gb_per_dollar(const ArrayConfig& array,
                               double tier_budget_bytes,
                               double compression_ratio,
                               double dram_usd_per_gb) {
  const double capacity =
      effective_capacity_bytes(array, tier_budget_bytes, compression_ratio);
  const double price =
      array.total_price() + tier_budget_bytes / 1e9 * dram_usd_per_gb;
  return capacity / 1e9 / price;
}

}  // namespace srcache::cost
