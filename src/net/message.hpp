// On-chip network vocabulary (paper §6.1, Figures 14 and 19).
//
// Serial messages ride the two ordered networks (forward/down and
// reverse/up); mesh messages carry producer->consumer DataFlow operands;
// ring messages reach the Memory subsystem and the GPP. The engine routes
// only the command of a serial message (plus a register number, see
// sim/kernel.hpp) and the service kind of a ring request.
#pragma once

#include <cstdint>
#include <string_view>

namespace javaflow::net {

// Figure 14 — network command values. The token commands double as the
// execution-time token kinds (§6.3).
enum class Command : std::uint8_t {
  // Instruction load & address resolution
  LoadInstruction,      // CMD_LOAD_INSTRUCTION
  UnloadInstruction,    // CMD_UNLOAD_INSTRUCTION
  SendAddressesDown,    // CMD_SEND_ADDRESSES_DOWN
  SendNeedsUp,          // CMD_SEND_NEEDS_UP
  AddressToken,         // source linear address announcement
  NeedRequest,          // a pop's request for a producer
  // Execution token bundle
  HeadToken,
  MemoryToken,
  RegisterToken,
  TailToken,
  // Special conditions & management (not exercised by the simulation,
  // §6.1 "Special Conditions and Management")
  ExceptionToken,
  QuieseToken,
  ResetAddressToken,
  SubsequentMessage,    // 64-bit payload continuation
};

std::string_view command_name(Command c) noexcept;

// Ring transaction kinds (Memory / GPP interface, Figure 19).
enum class RingService : std::uint8_t {
  MemoryRead,
  MemoryWrite,
  ConstantRead,   // unordered Method Area constant access
  GppService,     // calls, object services, exceptions
};

std::string_view ring_service_name(RingService s) noexcept;

}  // namespace javaflow::net
