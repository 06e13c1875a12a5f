#include "flash/ssd_specs.hpp"

#include <algorithm>

namespace srcache::flash {

SsdSpec SsdSpec::scaled(double factor) const {
  SsdSpec s = *this;
  s.capacity_bytes = std::max<u64>(
      static_cast<u64>(static_cast<double>(capacity_bytes) * factor),
      static_cast<u64>(units) * pages_per_block * kBlockSize * 4);
  s.write_buffer_bytes = std::max<u64>(
      static_cast<u64>(static_cast<double>(write_buffer_bytes) * factor),
      8 * MiB);
  return s;
}

SsdSpec spec_840pro_128() {
  SsdSpec s;
  s.name = "840Pro-128G";
  s.interface = "SATA";
  s.nand = "MLC";
  s.capacity_bytes = 128 * GiB;
  s.interface_mbps = 550.0;   // SATA 3.0 effective
  s.controller_lanes = 1;
  s.command_overhead = 10 * sim::kUs;  // -> ~97 KIOPS 4 KiB random read
  s.units = 32;                        // 8 channels × 4 dies
  s.pages_per_block = 2048;            // erase group = 32 × 8 MiB = 256 MiB
  s.read_latency = 60 * sim::kUs;
  s.program_latency = 340 * sim::kUs;  // -> ~385 MB/s sustained program
  s.erase_latency = 8 * sim::kMs;
  s.ops_fraction = 0.07;
  s.endurance_cycles = 3000;
  s.price_usd = 129.0;  // Table 4, SSD-A 128 GB
  s.year_released = 2012;
  return s;
}

SsdSpec spec_a_mlc_sata() {
  SsdSpec s = spec_840pro_128();
  s.name = "A-MLC(SATA)";
  s.price_usd = 418.0 / 4.0;  // Table 12 reports the 4-drive set price
  return s;
}

SsdSpec spec_a_tlc_sata() {
  SsdSpec s = spec_840pro_128();
  s.name = "A-TLC(SATA)";
  s.nand = "TLC";
  s.capacity_bytes = 120 * GiB;
  s.read_latency = 75 * sim::kUs;
  s.program_latency = 620 * sim::kUs;  // ~210 MB/s sustained program
  s.erase_latency = 10 * sim::kMs;
  s.endurance_cycles = 1000;
  s.price_usd = 272.0 / 4.0;
  s.year_released = 2013;
  return s;
}

SsdSpec spec_b_mlc_sata() {
  SsdSpec s = spec_840pro_128();
  s.name = "B-MLC(SATA)";
  s.program_latency = 360 * sim::kUs;  // slightly slower than company A
  s.price_usd = 374.0 / 4.0;
  s.year_released = 2014;
  return s;
}

SsdSpec spec_b_tlc_sata() {
  SsdSpec s = spec_a_tlc_sata();
  s.name = "B-TLC(SATA)";
  s.capacity_bytes = 128 * GiB;
  s.program_latency = 680 * sim::kUs;
  s.price_usd = 225.0 / 4.0;
  s.year_released = 2014;
  return s;
}

SsdSpec spec_c_mlc_nvme() {
  SsdSpec s;
  s.name = "C-MLC(NVMe)";
  s.interface = "NVMe";
  s.nand = "MLC";
  s.capacity_bytes = 400 * GiB;
  s.interface_mbps = 2800.0;           // Table 4 SSD-B SR for 400 GB: 2700
  s.controller_lanes = 4;              // multi-queue controller
  s.command_overhead = 8 * sim::kUs;   // -> ~450 KIOPS random read
  s.units = 90;
  s.pages_per_block = 2048;
  s.read_latency = 60 * sim::kUs;
  s.program_latency = 340 * sim::kUs;  // -> ~1.08 GB/s sustained program
  s.erase_latency = 8 * sim::kMs;
  s.ops_fraction = 0.12;               // enterprise drives provision more
  s.write_buffer_bytes = 32 * MiB;
  s.flush_barrier = 2 * sim::kMs;
  s.endurance_cycles = 3000;
  s.price_usd = 469.0;
  s.year_released = 2015;
  return s;
}

std::vector<SsdSpec> table12_catalog() {
  return {spec_a_mlc_sata(), spec_a_tlc_sata(), spec_b_mlc_sata(),
          spec_b_tlc_sata(), spec_c_mlc_nvme()};
}

}  // namespace srcache::flash
