// TCP-Echo (STM32479I-EVAL): a TCP echo server over a netstack-lite (the
// lwIP stand-in) written in guest IR — ethernet framing, IPv4 header
// validation with checksum, and a minimal TCP state machine. Nine operations:
// System_Init, Eth_Init, Net_Init, Rx_Task, Ip_Task, Tcp_Task, Timer_Task,
// Stats_Task + main. The rx/tx frame buffers and the pbuf memory pool are
// shared across the packet-path operations, mirroring the paper's note that
// TCP-Echo's large packet buffers and memory pools are shared among several
// operations.
//
// Default scenario: a TCP handshake, then 5 valid payload segments
// interleaved with 45 invalid frames (bad ethertype / protocol / IP checksum
// / port); the server must emit a SYN-ACK plus 5 exact echoes.
//
// Traffic mode (ROADMAP item 2): constructed with a TrafficSpec, the app
// becomes a long-running server — one firmware boot services the spec's whole
// seeded many-connection workload, and the scenario check compares echo
// count, committed-tx digest and UART stats against the generator's
// guest-replica expectations. The EthVariant picks the device model: the PIO
// Ethernet with its per-frame arrival gaps, or EthernetDma with descriptor
// rings, interrupt coalescing and a load-dependent arrival schedule. Both
// variants keep the same nine-operation partition; only the driver internals
// (eth_poll / eth_send) differ.

#ifndef SRC_APPS_TCP_ECHO_H_
#define SRC_APPS_TCP_ECHO_H_

#include <mutex>

#include "src/apps/app.h"
#include "src/hw/devices/ethernet.h"
#include "src/hw/devices/ethernet_dma.h"
#include "src/hw/devices/rcc.h"
#include "src/hw/devices/uart.h"
#include "src/traffic/traffic.h"

namespace opec_apps {

struct TcpEchoDevices : AppDevices {
  opec_hw::Ethernet* eth = nullptr;          // PIO variant
  opec_hw::EthernetDma* eth_dma = nullptr;   // DMA variant
  opec_hw::Uart* uart = nullptr;
  opec_hw::Rcc* rcc = nullptr;
  std::vector<std::unique_ptr<opec_hw::MmioDevice>> owned;
};

class TcpEchoApp : public Application {
 public:
  static constexpr int kValidPayloads = 5;
  static constexpr int kInvalidFrames = 45;

  enum class EthVariant { kPio, kDma };

  // The paper's scripted 50-frame scenario over the PIO device.
  TcpEchoApp() = default;
  // Generated traffic; the name distinguishes the registry variants.
  TcpEchoApp(opec_traffic::TrafficSpec spec, EthVariant variant);

  std::string name() const override { return name_; }
  opec_hw::Board board() const override { return opec_hw::Board::kStm32479iEval; }
  std::unique_ptr<opec_ir::Module> BuildModule() const override;
  opec_compiler::PartitionConfig Partition() const override;
  opec_hw::SocDescription Soc() const override;
  std::unique_ptr<AppDevices> CreateDevices(opec_hw::Machine& machine) const override;
  void PrepareScenario(AppDevices& devices) const override;
  std::string CheckScenario(const AppDevices& devices,
                            const opec_rt::RunResult& result) const override;

  static std::vector<uint8_t> PayloadFor(int index);

 private:
  // The generated traffic, made on first use and kept for the instance's
  // lifetime: Generate is a pure function of spec_, and every run of this app
  // needs it in both PrepareScenario and CheckScenario. Guarded by call_once
  // because registry apps are shared across campaign pool threads.
  const opec_traffic::GeneratedTraffic& Traffic() const;

  bool traffic_mode_ = false;
  opec_traffic::TrafficSpec spec_;
  EthVariant variant_ = EthVariant::kPio;
  std::string name_ = "TCP-Echo";
  mutable std::once_flag traffic_once_;
  mutable opec_traffic::GeneratedTraffic traffic_;
};

}  // namespace opec_apps

#endif  // SRC_APPS_TCP_ECHO_H_
