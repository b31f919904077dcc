#include "net/message.hpp"

namespace javaflow::net {

std::string_view command_name(Command c) noexcept {
  switch (c) {
    case Command::LoadInstruction: return "CMD_LOAD_INSTRUCTION";
    case Command::UnloadInstruction: return "CMD_UNLOAD_INSTRUCTION";
    case Command::SendAddressesDown: return "CMD_SEND_ADDRESSES_DOWN";
    case Command::SendNeedsUp: return "CMD_SEND_NEEDS_UP";
    case Command::AddressToken: return "ADDRESS_RESOLUTION_TOKEN";
    case Command::NeedRequest: return "NEED_REQUEST";
    case Command::HeadToken: return "HEAD_TOKEN";
    case Command::MemoryToken: return "MEMORY_TOKEN";
    case Command::RegisterToken: return "REGISTER_TOKEN";
    case Command::TailToken: return "TAIL_TOKEN";
    case Command::ExceptionToken: return "EXCEPTION_TOKEN";
    case Command::QuieseToken: return "QUIESE_TOKEN";
    case Command::ResetAddressToken: return "RESETADDRESS_TOKEN";
    case Command::SubsequentMessage: return "SUBSEQUENT_MESSAGE";
  }
  return "?";
}

std::string_view ring_service_name(RingService s) noexcept {
  switch (s) {
    case RingService::MemoryRead: return "MemoryRead";
    case RingService::MemoryWrite: return "MemoryWrite";
    case RingService::ConstantRead: return "ConstantRead";
    case RingService::GppService: return "GppService";
  }
  return "?";
}

}  // namespace javaflow::net
