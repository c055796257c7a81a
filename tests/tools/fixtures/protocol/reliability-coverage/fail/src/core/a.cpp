// Fixture: a raw core send that bypasses the retransmission table.
const char* kUsage = R"(usage: notify "at" pkt)";
void send_notify(int at, Packet pkt) {
  net().send_unicast(at, pkt);
}
