#include "src/apps/tcp_echo.h"

#include "src/hw/address_map.h"
#include "src/ir/builder.h"
#include "src/support/text.h"
#include "src/traffic/net_host.h"

namespace opec_apps {

using opec_traffic::BuildTcpFrame;
using opec_traffic::FrameCorruption;
using opec_traffic::kEchoPort;
using opec_traffic::kTcpFlagAck;
using opec_traffic::kTcpFlagFin;
using opec_traffic::kTcpFlagPsh;
using opec_traffic::kTcpFlagSyn;
using opec_traffic::ParseTcpFrame;
using opec_traffic::TcpSegment;

using opec_hw::kDwtCyccnt;
using opec_hw::kEthBase;
using opec_hw::kRccBase;
using opec_hw::kUsart1Base;
using opec_ir::FunctionBuilder;
using opec_ir::Module;
using opec_ir::StructField;
using opec_ir::Type;
using opec_ir::Val;

namespace {
constexpr uint32_t kEthStatus = kEthBase + 0x00;
constexpr uint32_t kEthRxLen = kEthBase + 0x04;
constexpr uint32_t kEthRxData = kEthBase + 0x08;
constexpr uint32_t kEthTxLen = kEthBase + 0x0C;
constexpr uint32_t kEthTxData = kEthBase + 0x10;
constexpr uint32_t kEthCmd = kEthBase + 0x14;
constexpr uint32_t kFrameCap = 256;

// EthernetDma registers (same ETH peripheral block, different map).
constexpr uint32_t kDmaRxRing = kEthBase + 0x04;
constexpr uint32_t kDmaRxCnt = kEthBase + 0x08;
constexpr uint32_t kDmaCoalesce = kEthBase + 0x0C;
constexpr uint32_t kDmaTxAddr = kEthBase + 0x10;
constexpr uint32_t kDmaTxLen = kEthBase + 0x14;
constexpr uint32_t kDmaCmd = kEthBase + 0x18;
constexpr uint32_t kRingLen = 8;
}  // namespace

TcpEchoApp::TcpEchoApp(opec_traffic::TrafficSpec spec, EthVariant variant)
    : traffic_mode_(true),
      spec_(spec),
      variant_(variant),
      name_(variant == EthVariant::kDma ? "TCP-Echo-DMA" : "TCP-Echo-Load") {}

std::vector<uint8_t> TcpEchoApp::PayloadFor(int index) {
  std::string s = opec_support::StrPrintf("echo-payload-%02d!", index);
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::unique_ptr<Module> TcpEchoApp::BuildModule() const {
  auto m = std::make_unique<Module>("tcp_echo");
  auto& tt = m->types();
  const Type* u8 = tt.U8();
  const Type* u32 = tt.U32();
  const Type* p_u8 = tt.PointerTo(u8);
  const Type* p_u32 = tt.PointerTo(u32);
  const Type* void_ty = tt.VoidTy();

  const Type* pcb_ty = tt.StructTy("TcpPcb", {{"state", u32, 0},
                                              {"local_port", u32, 0},
                                              {"remote_port", u32, 0},
                                              {"rcv_nxt", u32, 0},
                                              {"snd_nxt", u32, 0}});

  const Type* handler_sig = tt.FunctionTy(u32, {});
  const Type* log_sig = tt.FunctionTy(void_ty, {u32});
  // Protocol handler table (lwIP-style dispatch): [0]=TCP, [1]=UDP.
  m->AddGlobal("proto_handlers", tt.ArrayOf(tt.PointerTo(handler_sig), 2));
  // Diagnostic hook that is never registered: its indirect call cannot be
  // resolved by the points-to analysis and falls back to type matching —
  // the paper's source of spurious icall targets (Section 6.5).
  m->AddGlobal("log_fn", tt.PointerTo(log_sig));

  m->AddGlobal("rx_frame", tt.ArrayOf(u8, kFrameCap));
  m->AddGlobal("tx_frame", tt.ArrayOf(u8, kFrameCap));
  m->AddGlobal("rx_len", u32);
  m->AddGlobal("ip_data_off", u32);
  m->AddGlobal("tcp_pcb", pcb_ty);
  m->AddGlobal("pbuf_pool", tt.ArrayOf(u8, 1024));  // 4 buffers x 256 bytes
  m->AddGlobal("pool_used", tt.ArrayOf(u32, 4));
  m->AddGlobal("rx_count", u32);
  m->AddGlobal("valid_count", u32);
  m->AddGlobal("invalid_count", u32);
  m->AddGlobal("echo_count", u32);
  m->AddGlobal("tick_count", u32);
  // Only udp_input touches this; udp_input is a (points-to-resolved but never
  // executed) icall target inside Tcp_Task — the spurious-target source of
  // OPEC's nonzero ET in Figure 11.
  m->AddGlobal("udp_drop_count", u32);
  m->AddGlobal("sys_clock", u32);
  m->AddGlobal("profile_cycles", u32);

  if (variant_ == EthVariant::kDma) {
    // DMA driver state. Everything the DMA engine reads or writes is touched
    // only by Rx_Task members, so these stay *internal* globals with one
    // stable address in both build modes — no shadow copies for bus-master
    // writes to go stale against.
    m->AddGlobal("rx_ring", tt.ArrayOf(u32, 2 * kRingLen));
    m->AddGlobal("dma_bufs", tt.ArrayOf(u8, kRingLen * kFrameCap));
    m->AddGlobal("ring_cursor", u32);
    m->AddGlobal("ring_inited", u32);
  }

  auto pcb = [&](FunctionBuilder& b, const char* f) { return b.Fld(b.G("tcp_pcb"), f); };

  // --- inet.c: byte-order + checksum helpers ---
  {
    auto* fn = m->AddFunction("get_be16", tt.FunctionTy(u32, {p_u8}), {"p"});
    fn->set_source_file("inet.c");
    FunctionBuilder b(*m, fn);
    b.Ret((b.CastTo(u32, b.Idx(b.L("p"), 0u)) << b.U32(8)) |
          b.CastTo(u32, b.Idx(b.L("p"), 1u)));
    b.Finish();
  }
  {
    auto* fn = m->AddFunction("get_be32", tt.FunctionTy(u32, {p_u8}), {"p"});
    fn->set_source_file("inet.c");
    FunctionBuilder b(*m, fn);
    b.Ret((b.CallV("get_be16", {b.L("p")}) << b.U32(16)) |
          b.CallV("get_be16", {b.Addr(b.Idx(b.L("p"), 2u))}));
    b.Finish();
  }
  {
    auto* fn = m->AddFunction("put_be16", tt.FunctionTy(void_ty, {p_u8, u32}), {"p", "v"});
    fn->set_source_file("inet.c");
    FunctionBuilder b(*m, fn);
    b.Assign(b.Idx(b.L("p"), 0u), b.L("v") >> b.U32(8));
    b.Assign(b.Idx(b.L("p"), 1u), b.L("v"));
    b.RetVoid();
    b.Finish();
  }
  {
    auto* fn = m->AddFunction("put_be32", tt.FunctionTy(void_ty, {p_u8, u32}), {"p", "v"});
    fn->set_source_file("inet.c");
    FunctionBuilder b(*m, fn);
    b.Call("put_be16", {b.L("p"), b.L("v") >> b.U32(16)});
    b.Call("put_be16", {b.Addr(b.Idx(b.L("p"), 2u)), b.L("v") & b.U32(0xFFFF)});
    b.RetVoid();
    b.Finish();
  }
  {
    // Folded 16-bit one's-complement sum (NOT inverted): a valid header sums
    // to 0xFFFF when the checksum field is included.
    auto* fn = m->AddFunction("checksum16", tt.FunctionTy(u32, {p_u8, u32}), {"p", "len"});
    fn->set_source_file("inet.c");
    FunctionBuilder b(*m, fn);
    Val sum = b.Local("sum", u32);
    Val i = b.Local("i", u32);
    b.Assign(sum, b.U32(0));
    b.Assign(i, b.U32(0));
    b.While(i + b.U32(1) < b.L("len"));
    {
      b.Assign(sum, sum + b.CallV("get_be16", {b.Addr(b.Idx(b.L("p"), i))}));
      b.Assign(i, i + b.U32(2));
    }
    b.End();
    b.If(i < b.L("len"));
    b.Assign(sum, sum + (b.CastTo(u32, b.Idx(b.L("p"), i)) << b.U32(8)));
    b.End();
    b.While((sum >> b.U32(16)) != b.U32(0));
    b.Assign(sum, (sum & b.U32(0xFFFF)) + (sum >> b.U32(16)));
    b.End();
    b.Ret(sum);
    b.Finish();
  }

  // --- ethernetif.c: frame I/O (PIO or DMA driver, same interface) ---
  if (variant_ == EthVariant::kPio) {
    auto* fn = m->AddFunction("eth_poll", tt.FunctionTy(u32, {}), {});
    fn->set_source_file("ethernetif.c");
    FunctionBuilder b(*m, fn);
    b.If((b.Mmio32(kEthStatus) & b.U32(1)) == b.U32(0));
    b.Ret(b.U32(0));
    b.End();
    Val len = b.Local("len", u32);
    b.Assign(len, b.Mmio32(kEthRxLen));
    b.If(len > b.U32(kFrameCap));
    b.Assign(len, b.U32(kFrameCap));
    b.End();
    Val w = b.Local("w", p_u32);
    Val i = b.Local("i", u32);
    b.Assign(w, b.CastTo(p_u32, b.Addr(b.Idx(b.G("rx_frame"), 0u))));
    b.Assign(i, b.U32(0));
    b.While(i * b.U32(4) < len);
    {
      b.Assign(b.Idx(w, i), b.Mmio32(kEthRxData));
      b.Assign(i, i + b.U32(1));
    }
    b.End();
    b.Assign(b.Mmio32(kEthCmd), b.U32(1));  // done with this rx frame
    b.Assign(b.G("rx_len"), len);
    b.Assign(b.G("rx_count"), b.G("rx_count") + b.U32(1));
    b.Ret(len);
    b.Finish();
  } else {
    auto* fn = m->AddFunction("eth_poll", tt.FunctionTy(u32, {}), {});
    fn->set_source_file("ethernetif.c");
    FunctionBuilder b(*m, fn);
    // Lazy ring setup on first poll keeps every DMA-visible global inside
    // Rx_Task (Eth_Init belongs to a different operation).
    b.If(b.G("ring_inited") == b.U32(0));
    {
      Val j = b.Local("j", u32);
      b.Assign(j, b.U32(0));
      b.While(j < b.U32(kRingLen));
      {
        b.Assign(b.Idx(b.G("rx_ring"), j * b.U32(2)),
                 b.CastTo(u32, b.Addr(b.Idx(b.G("dma_bufs"), j * b.U32(kFrameCap)))));
        b.Assign(b.Idx(b.G("rx_ring"), j * b.U32(2) + b.U32(1)), b.U32(0x80000000));
        b.Assign(j, j + b.U32(1));
      }
      b.End();
      b.Assign(b.Mmio32(kDmaRxRing), b.CastTo(u32, b.Addr(b.Idx(b.G("rx_ring"), 0u))));
      b.Assign(b.Mmio32(kDmaRxCnt), b.U32(kRingLen));
      b.Assign(b.Mmio32(kDmaCoalesce), b.U32(4));
      b.Assign(b.G("ring_cursor"), b.U32(0));
      b.Assign(b.G("ring_inited"), b.U32(1));
    }
    b.End();
    b.If((b.Mmio32(kEthStatus) & b.U32(1)) == b.U32(0));
    b.Ret(b.U32(0));
    b.End();
    b.Assign(b.Mmio32(kDmaCmd), b.U32(1));  // wait for + DMA-deliver a batch
    Val w1 = b.Local("w1", u32);
    b.Assign(w1, b.Idx(b.G("rx_ring"), b.G("ring_cursor") * b.U32(2) + b.U32(1)));
    b.If((w1 & b.U32(0x80000000)) != b.U32(0));
    b.Ret(b.U32(0));  // descriptor still device-owned: nothing delivered
    b.End();
    Val len = b.Local("len", u32);
    b.Assign(len, w1 & b.U32(0xFFFF));
    b.If(len > b.U32(kFrameCap));
    b.Assign(len, b.U32(kFrameCap));
    b.End();
    // Copy-in from the descriptor's buffer, word-granular like the PIO path.
    Val src = b.Local("src", p_u32);
    Val dst = b.Local("dst", p_u32);
    Val i = b.Local("i", u32);
    b.Assign(src, b.CastTo(p_u32,
                           b.Addr(b.Idx(b.G("dma_bufs"), b.G("ring_cursor") * b.U32(kFrameCap)))));
    b.Assign(dst, b.CastTo(p_u32, b.Addr(b.Idx(b.G("rx_frame"), 0u))));
    b.Assign(i, b.U32(0));
    b.While(i * b.U32(4) < len);
    {
      b.Assign(b.Idx(dst, i), b.Idx(src, i));
      b.Assign(i, i + b.U32(1));
    }
    b.End();
    // Return the descriptor to the device and advance.
    b.Assign(b.Idx(b.G("rx_ring"), b.G("ring_cursor") * b.U32(2) + b.U32(1)),
             b.U32(0x80000000));
    b.Assign(b.G("ring_cursor"), b.G("ring_cursor") + b.U32(1));
    b.If(b.G("ring_cursor") == b.U32(kRingLen));
    b.Assign(b.G("ring_cursor"), b.U32(0));
    b.End();
    b.Assign(b.G("rx_len"), len);
    b.Assign(b.G("rx_count"), b.G("rx_count") + b.U32(1));
    b.Ret(len);
    b.Finish();
  }
  if (variant_ == EthVariant::kPio) {
    auto* fn = m->AddFunction("eth_send", tt.FunctionTy(void_ty, {u32}), {"len"});
    fn->set_source_file("ethernetif.c");
    FunctionBuilder b(*m, fn);
    b.Assign(b.Mmio32(kEthTxLen), b.L("len"));
    Val w = b.Local("w", p_u32);
    Val i = b.Local("i", u32);
    b.Assign(w, b.CastTo(p_u32, b.Addr(b.Idx(b.G("tx_frame"), 0u))));
    b.Assign(i, b.U32(0));
    b.While(i * b.U32(4) < b.L("len"));
    {
      b.Assign(b.Mmio32(kEthTxData), b.Idx(w, i));
      b.Assign(i, i + b.U32(1));
    }
    b.End();
    b.Assign(b.Mmio32(kEthCmd), b.U32(2));  // commit
    b.RetVoid();
    b.Finish();
  } else {
    auto* fn = m->AddFunction("eth_send", tt.FunctionTy(void_ty, {u32}), {"len"});
    fn->set_source_file("ethernetif.c");
    FunctionBuilder b(*m, fn);
    // Hand the device the frame's address; under OPEC the rewritten access
    // resolves to the live shadow, so the DMA read sees current bytes.
    b.Assign(b.Mmio32(kDmaTxAddr), b.CastTo(u32, b.Addr(b.Idx(b.G("tx_frame"), 0u))));
    b.Assign(b.Mmio32(kDmaTxLen), b.L("len"));
    b.Assign(b.Mmio32(kDmaCmd), b.U32(2));  // DMA-read + commit
    b.RetVoid();
    b.Finish();
  }

  // --- ip.c: IPv4 input validation ---
  {
    auto* fn = m->AddFunction("ip_input", tt.FunctionTy(u32, {}), {});
    fn->set_source_file("ip.c");
    FunctionBuilder b(*m, fn);
    b.If(b.G("rx_len") < b.U32(54));
    b.Ret(b.U32(0));
    b.End();
    // Ethertype must be IPv4.
    b.If((b.CastTo(u32, b.Idx(b.G("rx_frame"), 12u)) != b.U32(0x08)) ||
         (b.CastTo(u32, b.Idx(b.G("rx_frame"), 13u)) != b.U32(0x00)));
    b.Ret(b.U32(0));
    b.End();
    // Version/IHL, protocol, header checksum.
    b.If(b.CastTo(u32, b.Idx(b.G("rx_frame"), 14u)) != b.U32(0x45));
    b.Ret(b.U32(0));
    b.End();
    b.If(b.CastTo(u32, b.Idx(b.G("rx_frame"), 23u)) != b.U32(6));
    b.Ret(b.U32(0));
    b.End();
    b.If(b.CallV("checksum16", {b.Addr(b.Idx(b.G("rx_frame"), 14u)), b.U32(20)}) !=
         b.U32(0xFFFF));
    b.Ret(b.U32(0));
    b.End();
    b.Ret(b.U32(34));  // TCP header offset within the frame
    b.Finish();
  }

  // --- echo.c: pbuf pool ---
  {
    auto* fn = m->AddFunction("pbuf_alloc", tt.FunctionTy(u32, {}), {});
    fn->set_source_file("echo.c");
    FunctionBuilder b(*m, fn);
    Val i = b.Local("i", u32);
    b.Assign(i, b.U32(0));
    b.While(i < b.U32(4));
    {
      b.If(b.Idx(b.G("pool_used"), i) == b.U32(0));
      {
        b.Assign(b.Idx(b.G("pool_used"), i), b.U32(1));
        b.Ret(i);
      }
      b.End();
      b.Assign(i, i + b.U32(1));
    }
    b.End();
    b.Ret(b.U32(0xFFFFFFFF));
    b.Finish();
  }
  {
    auto* fn = m->AddFunction("pbuf_free", tt.FunctionTy(void_ty, {u32}), {"idx"});
    fn->set_source_file("echo.c");
    FunctionBuilder b(*m, fn);
    b.If(b.L("idx") < b.U32(4));
    b.Assign(b.Idx(b.G("pool_used"), b.L("idx")), b.U32(0));
    b.End();
    b.RetVoid();
    b.Finish();
  }

  // --- tcp_out.c: segment construction + transmit ---
  {
    // tcp_output(flags, payload_len, pbuf_idx): payload (if any) comes from
    // the pool buffer pbuf_idx.
    auto* fn = m->AddFunction("tcp_output", tt.FunctionTy(void_ty, {u32, u32, u32}),
                              {"flags", "payload_len", "pbuf_idx"});
    fn->set_source_file("tcp_out.c");
    FunctionBuilder b(*m, fn);
    Val i = b.Local("i", u32);
    // Ethernet: swap roles of the fixed MACs.
    b.Assign(i, b.U32(0));
    b.While(i < b.U32(6));
    {
      b.Assign(b.Idx(b.G("tx_frame"), i), b.U8(0x04));
      b.Assign(b.Idx(b.G("tx_frame"), i + b.U32(6)), b.U8(0x02));
      b.Assign(i, i + b.U32(1));
    }
    b.End();
    b.Assign(b.Idx(b.G("tx_frame"), 12u), b.U8(0x08));
    b.Assign(b.Idx(b.G("tx_frame"), 13u), b.U8(0x00));
    // IPv4 header.
    Val ip = b.Local("ip", p_u8);
    b.Assign(ip, b.Addr(b.Idx(b.G("tx_frame"), 14u)));
    b.Assign(i, b.U32(0));
    b.While(i < b.U32(20));
    {
      b.Assign(b.Idx(ip, i), b.U8(0));
      b.Assign(i, i + b.U32(1));
    }
    b.End();
    b.Assign(b.Idx(ip, 0u), b.U8(0x45));
    b.Call("put_be16", {b.Addr(b.Idx(ip, 2u)), b.U32(40) + b.L("payload_len")});
    b.Assign(b.Idx(ip, 8u), b.U8(64));
    b.Assign(b.Idx(ip, 9u), b.U8(6));
    b.Call("put_be32", {b.Addr(b.Idx(ip, 12u)), b.U32(0xC0A80001)});
    b.Call("put_be32", {b.Addr(b.Idx(ip, 16u)), b.U32(0xC0A80002)});
    Val sum = b.Local("sum", u32);
    b.Assign(sum, b.CallV("checksum16", {ip, b.U32(20)}));
    b.Call("put_be16", {b.Addr(b.Idx(ip, 10u)), ~sum & b.U32(0xFFFF)});
    // TCP header.
    Val tcp = b.Local("tcp", p_u8);
    b.Assign(tcp, b.Addr(b.Idx(b.G("tx_frame"), 34u)));
    b.Call("put_be16", {b.Addr(b.Idx(tcp, 0u)), pcb(b, "local_port")});
    b.Call("put_be16", {b.Addr(b.Idx(tcp, 2u)), pcb(b, "remote_port")});
    b.Call("put_be32", {b.Addr(b.Idx(tcp, 4u)), pcb(b, "snd_nxt")});
    b.Call("put_be32", {b.Addr(b.Idx(tcp, 8u)), pcb(b, "rcv_nxt")});
    b.Call("put_be16", {b.Addr(b.Idx(tcp, 12u)), (b.U32(5) << b.U32(12)) | b.L("flags")});
    b.Call("put_be16", {b.Addr(b.Idx(tcp, 14u)), b.U32(0xFFFF)});
    b.Call("put_be16", {b.Addr(b.Idx(tcp, 16u)), b.U32(0)});
    b.Call("put_be16", {b.Addr(b.Idx(tcp, 18u)), b.U32(0)});
    // Payload from the pool.
    b.Assign(i, b.U32(0));
    b.While(i < b.L("payload_len"));
    {
      b.Assign(b.Idx(b.G("tx_frame"), b.U32(54) + i),
               b.Idx(b.G("pbuf_pool"), b.L("pbuf_idx") * b.U32(256) + i));
      b.Assign(i, i + b.U32(1));
    }
    b.End();
    b.Call("eth_send", {b.U32(54) + b.L("payload_len")});
    b.RetVoid();
    b.Finish();
  }

  // --- tcp_in.c: the state machine ---
  {
    auto* fn = m->AddFunction("tcp_input", tt.FunctionTy(u32, {}), {});
    fn->set_source_file("tcp_in.c");
    FunctionBuilder b(*m, fn);
    Val tcp = b.Local("tcp", p_u8);
    b.Assign(tcp, b.Addr(b.Idx(b.G("rx_frame"), 34u)));
    b.If(b.CallV("get_be16", {b.Addr(b.Idx(tcp, 2u))}) != pcb(b, "local_port"));
    b.Ret(b.U32(0));
    b.End();
    Val flags = b.Local("flags", u32);
    Val seq = b.Local("seq", u32);
    Val payload_len = b.Local("payload_len", u32);
    b.Assign(flags, b.CallV("get_be16", {b.Addr(b.Idx(tcp, 12u))}) & b.U32(0x3F));
    b.Assign(seq, b.CallV("get_be32", {b.Addr(b.Idx(tcp, 4u))}));
    b.Assign(payload_len,
             b.CallV("get_be16", {b.Addr(b.Idx(b.G("rx_frame"), 16u))}) - b.U32(40));

    b.If((flags & b.U32(0x02)) != b.U32(0));  // SYN
    {
      b.Assign(pcb(b, "remote_port"), b.CallV("get_be16", {b.Addr(b.Idx(tcp, 0u))}));
      b.Assign(pcb(b, "rcv_nxt"), seq + b.U32(1));
      b.Assign(pcb(b, "snd_nxt"), b.U32(1000));
      b.Assign(pcb(b, "state"), b.U32(1));
      b.Call("tcp_output", {b.U32(0x12), b.U32(0), b.U32(0)});  // SYN|ACK
      b.Assign(pcb(b, "snd_nxt"), pcb(b, "snd_nxt") + b.U32(1));
      b.Ret(b.U32(1));
    }
    b.End();
    b.If((flags & b.U32(0x01)) != b.U32(0));  // FIN
    {
      b.Assign(pcb(b, "rcv_nxt"), seq + b.U32(1));
      b.Call("tcp_output", {b.U32(0x10), b.U32(0), b.U32(0)});  // ACK
      b.Assign(pcb(b, "state"), b.U32(0));
      b.Ret(b.U32(1));
    }
    b.End();
    b.If((pcb(b, "state") == b.U32(1)) && ((flags & b.U32(0x10)) != b.U32(0)));
    {
      b.Assign(pcb(b, "state"), b.U32(2));  // ESTABLISHED
    }
    b.End();
    b.If((pcb(b, "state") == b.U32(2)) && (payload_len > b.U32(0)));
    {
      Val idx = b.Local("idx", u32);
      Val i = b.Local("i", u32);
      b.Assign(idx, b.CallV("pbuf_alloc", {}));
      b.If(idx == b.U32(0xFFFFFFFF));
      b.Ret(b.U32(0));
      b.End();
      b.Assign(i, b.U32(0));
      b.While(i < payload_len);
      {
        b.Assign(b.Idx(b.G("pbuf_pool"), idx * b.U32(256) + i),
                 b.Idx(b.G("rx_frame"), b.U32(54) + i));
        b.Assign(i, i + b.U32(1));
      }
      b.End();
      b.Assign(pcb(b, "rcv_nxt"), seq + payload_len);
      b.Call("tcp_output", {b.U32(0x18), payload_len, idx});  // PSH|ACK echo
      b.Assign(pcb(b, "snd_nxt"), pcb(b, "snd_nxt") + payload_len);
      b.Call("pbuf_free", {idx});
      b.Assign(b.G("echo_count"), b.G("echo_count") + b.U32(1));
      b.Ret(b.U32(1));
    }
    b.End();
    b.Ret(b.U32(0));
    b.Finish();
  }

  // --- udp_input: present in the image, reached only through the handler
  // table (TCP-Echo never receives UDP in this scenario) ---
  {
    auto* fn = m->AddFunction("udp_input", tt.FunctionTy(u32, {}), {});
    fn->set_source_file("udp.c");
    FunctionBuilder b(*m, fn);
    b.Assign(b.G("udp_drop_count"), b.G("udp_drop_count") + b.U32(1));
    b.Ret(b.U32(0));
    b.Finish();
  }

  // --- Task wrappers (the operation entries) + main ---
  {
    auto* fn = m->AddFunction("System_Init", tt.FunctionTy(void_ty, {}), {});
    fn->set_source_file("system.c");
    FunctionBuilder b(*m, fn);
    b.Assign(b.Mmio32(kRccBase + 0x00), b.U32(1u << 24));
    b.While((b.Mmio32(kRccBase + 0x00) & b.U32(1u << 25)) == b.U32(0));
    b.End();
    b.Assign(b.G("sys_clock"), b.U32(180000000));
    b.RetVoid();
    b.Finish();
  }
  {
    auto* fn = m->AddFunction("Eth_Init", tt.FunctionTy(void_ty, {}), {});
    fn->set_source_file("ethernetif.c");
    FunctionBuilder b(*m, fn);
    Val status = b.Local("status", u32);
    b.Assign(status, b.Mmio32(kEthStatus));  // link check
    b.RetVoid();
    b.Finish();
  }
  {
    auto* fn = m->AddFunction("Net_Init", tt.FunctionTy(void_ty, {}), {});
    fn->set_source_file("tcp_in.c");
    FunctionBuilder b(*m, fn);
    b.Assign(pcb(b, "state"), b.U32(0));
    b.Assign(pcb(b, "local_port"), b.U32(kEchoPort));
    b.Assign(pcb(b, "snd_nxt"), b.U32(1000));
    b.Assign(pcb(b, "rcv_nxt"), b.U32(0));
    b.Assign(b.Idx(b.G("proto_handlers"), 0u), b.FnPtr("tcp_input"));
    b.Assign(b.Idx(b.G("proto_handlers"), 1u), b.FnPtr("udp_input"));
    Val i = b.Local("i", u32);
    b.Assign(i, b.U32(0));
    b.While(i < b.U32(4));
    {
      b.Assign(b.Idx(b.G("pool_used"), i), b.U32(0));
      b.Assign(i, i + b.U32(1));
    }
    b.End();
    b.RetVoid();
    b.Finish();
  }
  {
    auto* fn = m->AddFunction("Rx_Task", tt.FunctionTy(u32, {}), {});
    fn->set_source_file("main.c");
    FunctionBuilder b(*m, fn);
    b.Ret(b.CallV("eth_poll", {}));
    b.Finish();
  }
  {
    auto* fn = m->AddFunction("Ip_Task", tt.FunctionTy(void_ty, {}), {});
    fn->set_source_file("main.c");
    FunctionBuilder b(*m, fn);
    b.Assign(b.G("ip_data_off"), b.CallV("ip_input", {}));
    b.If(b.G("ip_data_off") != b.U32(0));
    b.Assign(b.G("valid_count"), b.G("valid_count") + b.U32(1));
    b.Else();
    b.Assign(b.G("invalid_count"), b.G("invalid_count") + b.U32(1));
    b.End();
    b.RetVoid();
    b.Finish();
  }
  {
    auto* fn = m->AddFunction("Tcp_Task", tt.FunctionTy(void_ty, {}), {});
    fn->set_source_file("main.c");
    FunctionBuilder b(*m, fn);
    b.If(b.G("ip_data_off") != b.U32(0));
    {
      // Dispatch through the protocol handler table (frame byte 23 is the IP
      // protocol; ip_input only accepts TCP, so index 0 in practice).
      Val idx = b.Local("idx", u32);
      b.Assign(idx, b.U32(0));
      b.If(b.CastTo(u32, b.Idx(b.G("rx_frame"), 23u)) != b.U32(6));
      b.Assign(idx, b.U32(1));
      b.End();
      b.Do(b.ICallV(handler_sig, b.Idx(b.G("proto_handlers"), idx), {}));
      // Never-registered diagnostic hook: guarded, so it never fires.
      b.If(b.CastTo(u32, b.G("log_fn")) != b.U32(0));
      b.ICall(log_sig, b.G("log_fn"), {b.G("rx_len")});
      b.End();
    }
    b.End();
    b.RetVoid();
    b.Finish();
  }
  {
    auto* fn = m->AddFunction("Timer_Task", tt.FunctionTy(void_ty, {}), {});
    fn->set_source_file("timer.c");
    FunctionBuilder b(*m, fn);
    b.Assign(b.G("tick_count"), b.G("tick_count") + b.U32(1));
    b.RetVoid();
    b.Finish();
  }
  {
    auto* fn = m->AddFunction("Stats_Task", tt.FunctionTy(void_ty, {}), {});
    fn->set_source_file("report.c");
    FunctionBuilder b(*m, fn);
    b.Assign(b.Mmio32(kUsart1Base + 0x08), b.U32(0x16D));
    b.Assign(b.Mmio32(kUsart1Base + 0x04), b.U32('N'));
    b.Assign(b.Mmio32(kUsart1Base + 0x04), b.U32('T'));
    b.Assign(b.Mmio32(kUsart1Base + 0x04), b.U32('0') + b.G("echo_count"));
    b.RetVoid();
    b.Finish();
  }
  {
    auto* fn = m->AddFunction("main", tt.FunctionTy(u32, {}), {});
    fn->set_source_file("main.c");
    FunctionBuilder b(*m, fn);
    Val start = b.Local("start", u32);
    b.Assign(start, b.Mmio32(kDwtCyccnt));
    b.Call("System_Init", {});
    b.Call("Eth_Init", {});
    b.Call("Net_Init", {});
    b.While((b.Mmio32(kEthStatus) & b.U32(1)) != b.U32(0));
    {
      b.Do(b.CallV("Rx_Task", {}));
      b.Call("Ip_Task", {});
      b.Call("Tcp_Task", {});
    }
    b.End();
    b.Call("Timer_Task", {});
    b.Call("Stats_Task", {});
    b.Assign(b.G("profile_cycles"), b.Mmio32(kDwtCyccnt) - start);
    b.Ret(b.G("echo_count"));
    b.Finish();
  }
  return m;
}

opec_compiler::PartitionConfig TcpEchoApp::Partition() const {
  opec_compiler::PartitionConfig config;
  for (const char* entry : {"System_Init", "Eth_Init", "Net_Init", "Rx_Task", "Ip_Task",
                            "Tcp_Task", "Timer_Task", "Stats_Task"}) {
    config.entries.push_back({entry, {}});
  }
  config.sanitize.push_back({"tcp_pcb", 0, 0xFFFFFFFF});  // struct: no range limit
  config.sanitize.push_back({"ip_data_off", 0, 256});
  return config;
}

opec_hw::SocDescription TcpEchoApp::Soc() const {
  opec_hw::SocDescription soc = opec_hw::SocDescription::WithCorePeripherals();
  soc.AddPeripheral({"RCC", kRccBase, 0x400, false});
  soc.AddPeripheral({"ETH", kEthBase, 0x400, false});
  soc.AddPeripheral({"USART1", kUsart1Base, 0x400, false});
  return soc;
}

std::unique_ptr<AppDevices> TcpEchoApp::CreateDevices(opec_hw::Machine& machine) const {
  auto devices = std::make_unique<TcpEchoDevices>();
  if (variant_ == EthVariant::kDma) {
    auto eth = std::make_unique<opec_hw::EthernetDma>("ETH", kEthBase, &machine);
    devices->eth_dma = eth.get();
    machine.bus().AttachDevice(eth.get());
    devices->owned.push_back(std::move(eth));
  } else {
    auto eth = std::make_unique<opec_hw::Ethernet>("ETH", kEthBase);
    devices->eth = eth.get();
    machine.bus().AttachDevice(eth.get());
    devices->owned.push_back(std::move(eth));
  }
  auto uart = std::make_unique<opec_hw::Uart>("USART1", kUsart1Base);
  auto rcc = std::make_unique<opec_hw::Rcc>("RCC", kRccBase);
  devices->uart = uart.get();
  devices->rcc = rcc.get();
  machine.bus().AttachDevice(uart.get());
  machine.bus().AttachDevice(rcc.get());
  devices->owned.push_back(std::move(uart));
  devices->owned.push_back(std::move(rcc));
  return devices;
}

const opec_traffic::GeneratedTraffic& TcpEchoApp::Traffic() const {
  std::call_once(traffic_once_, [this] {
    traffic_ = opec_traffic::Generate(spec_);
    // The per-reply copies are for the generator's own tests; the scenario
    // check uses the count and digest, so do not keep them alive.
    traffic_.expected_tx = {};
  });
  return traffic_;
}

void TcpEchoApp::PrepareScenario(AppDevices& devices) const {
  auto& d = static_cast<TcpEchoDevices&>(devices);
  if (traffic_mode_) {
    // Long-running mode: thousands of frames through one boot. Cap the tx
    // retention window so memory stays bounded; the digest covers every
    // committed frame regardless.
    const opec_traffic::GeneratedTraffic& gen = Traffic();
    if (variant_ == EthVariant::kDma) {
      d.eth_dma->set_tx_retention_cap(64);
      for (const opec_traffic::TrafficFrame& f : gen.frames) {
        d.eth_dma->QueueRxFrame(f.bytes, f.gap_cycles);
      }
    } else {
      d.eth->set_tx_retention_cap(64);
      for (const opec_traffic::TrafficFrame& f : gen.frames) {
        d.eth->QueueRxFrame(f.bytes, f.gap_cycles);
      }
    }
    return;
  }
  uint32_t client_seq = 100;

  TcpSegment syn;
  syn.seq = client_seq;
  syn.flags = kTcpFlagSyn;
  d.eth->QueueRxFrame(BuildTcpFrame(syn));
  ++client_seq;

  TcpSegment ack;
  ack.seq = client_seq;
  ack.ack = 1001;
  ack.flags = kTcpFlagAck;
  d.eth->QueueRxFrame(BuildTcpFrame(ack));

  // 5 valid payload segments, each followed by 9 invalid frames.
  for (int i = 0; i < kValidPayloads; ++i) {
    TcpSegment data;
    data.seq = client_seq;
    data.ack = 1001;
    data.flags = kTcpFlagAck | kTcpFlagPsh;
    data.payload = PayloadFor(i);
    client_seq += static_cast<uint32_t>(data.payload.size());
    d.eth->QueueRxFrame(BuildTcpFrame(data));

    for (int k = 0; k < kInvalidFrames / kValidPayloads; ++k) {
      TcpSegment junk;
      junk.seq = 777;
      junk.flags = kTcpFlagAck | kTcpFlagPsh;
      junk.payload = PayloadFor(99);
      FrameCorruption corruption;
      switch (k % 4) {
        case 0:
          corruption.bad_ethertype = true;
          break;
        case 1:
          corruption.bad_protocol = true;
          break;
        case 2:
          corruption.bad_checksum = true;
          break;
        default:
          corruption.wrong_port = true;
          break;
      }
      d.eth->QueueRxFrame(BuildTcpFrame(junk, corruption));
    }
  }
}

std::string TcpEchoApp::CheckScenario(const AppDevices& devices,
                                      const opec_rt::RunResult& result) const {
  const auto& d = static_cast<const TcpEchoDevices&>(devices);
  if (!result.ok) {
    return "run failed: " + result.violation;
  }
  if (traffic_mode_) {
    // Compare the generator's expectations against the device's
    // full-history counters and digest.
    const opec_traffic::GeneratedTraffic& gen = Traffic();
    uint64_t committed = variant_ == EthVariant::kDma ? d.eth_dma->tx_committed()
                                                      : d.eth->tx_committed();
    uint64_t digest =
        variant_ == EthVariant::kDma ? d.eth_dma->tx_digest() : d.eth->tx_digest();
    if (result.return_value != gen.expected_echoes) {
      return opec_support::StrPrintf("expected %u echoes, got %u", gen.expected_echoes,
                                     result.return_value);
    }
    if (committed != gen.expected_tx_frames) {
      return opec_support::StrPrintf("expected %llu tx frames, got %llu",
                                     static_cast<unsigned long long>(gen.expected_tx_frames),
                                     static_cast<unsigned long long>(committed));
    }
    if (digest != gen.expected_tx_digest) {
      return opec_support::StrPrintf("tx digest mismatch: %016llx vs %016llx",
                                     static_cast<unsigned long long>(digest),
                                     static_cast<unsigned long long>(gen.expected_tx_digest));
    }
    if (d.uart->TxString() != gen.expected_uart) {
      return "stats report mismatch: " + d.uart->TxString();
    }
    return "";
  }
  if (result.return_value != static_cast<uint32_t>(kValidPayloads)) {
    return opec_support::StrPrintf("expected %d echoes, got %u", kValidPayloads,
                                   result.return_value);
  }
  const auto& tx = d.eth->tx_frames();
  if (tx.size() != static_cast<size_t>(1 + kValidPayloads)) {
    return opec_support::StrPrintf("expected %d tx frames, got %zu", 1 + kValidPayloads,
                                   tx.size());
  }
  TcpSegment synack;
  if (!ParseTcpFrame(tx[0], &synack) || synack.flags != (kTcpFlagSyn | kTcpFlagAck) ||
      synack.ack != 101) {
    return "first reply is not a correct SYN-ACK";
  }
  for (int i = 0; i < kValidPayloads; ++i) {
    TcpSegment echo;
    if (!ParseTcpFrame(tx[static_cast<size_t>(i + 1)], &echo)) {
      return opec_support::StrPrintf("echo %d unparseable", i);
    }
    if (echo.payload != PayloadFor(i)) {
      return opec_support::StrPrintf("echo %d payload mismatch", i);
    }
  }
  // But the invalid packets were counted and dropped.
  if (d.uart->TxString() != opec_support::StrPrintf("NT%d", kValidPayloads)) {
    return "stats report mismatch: " + d.uart->TxString();
  }
  return "";
}

}  // namespace opec_apps
