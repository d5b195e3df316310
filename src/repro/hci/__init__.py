"""HCI transport substrate: ACL framing and the virtual link."""
